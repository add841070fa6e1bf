package crcx

import (
	"hash/crc32"
	"math/rand"
	"os"
	"syscall"
	"testing"
)

// TestNoReadOutsideBuffer runs every engine over buffers that end exactly
// at an inaccessible page, and over buffers that start exactly after one:
// a kernel that reads a byte past either end of its slice crashes the test
// binary here instead of reading a neighbour's memory in production. The
// CopyUpdate engines run with src at either guard and, separately, dst at
// either guard, so they neither read nor write past either slice.
func TestNoReadOutsideBuffer(t *testing.T) {
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect low guard: %v", err)
	}
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect high guard: %v", err)
	}
	body := mem[page : 2*page : 2*page]
	rand.New(rand.NewSource(10)).Read(body)
	other := make([]byte, page)

	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			needs(t, e.name)
			for n := foldMin; n <= min(4096, page); n++ {
				for _, p := range [][]byte{body[page-n:], body[:n:n]} {
					if got, want := e.f(1, p), crc32.Update(1, stdTable, p); got != want {
						t.Fatalf("%d bytes at the guard: %08x, stdlib says %08x", n, got, want)
					}
				}
			}
		})
	}
	for _, e := range copyEngines {
		t.Run("copy/"+e.name, func(t *testing.T) {
			needs(t, e.name)
			rand.New(rand.NewSource(10)).Read(body)
			for n := 0; n <= min(4096, page); n++ {
				for _, p := range [][]byte{body[page-n:], body[:n:n]} {
					checkCopy(t, e, 1, other[:n], p) // src at the guard
				}
				src := append([]byte(nil), other[:n]...)
				for _, p := range [][]byte{body[page-n:], body[:n:n]} {
					checkCopy(t, e, 1, p, src) // dst at the guard
				}
			}
		})
	}
}
