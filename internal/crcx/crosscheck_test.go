package crcx

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

type leg struct {
	name string
	f    func(uint32, []byte) uint32
}

// engines are the three Castagnoli engines the package can select
// between, by the name Engine reports for each.
var engines = []leg{
	{"vpclmulqdq", updateFold},
	{"stdlib", updateStdlib},
	{"portable", updatePortable},
}

// needs skips a leg that runs the folding engine on a CPU without it,
// naming what is missing; the other engines' legs always run.
func needs(t testing.TB, names ...string) {
	t.Helper()
	for _, n := range names {
		if n == "vpclmulqdq" {
			if m := foldMissing(); m != "" {
				t.Skipf("folding engine unavailable: no %s", m)
			}
		}
	}
}

// TestImplementationsAgree cross-checks every engine — and the dispatched
// entry point — against hash/crc32 over random lengths and offsets, so a
// table-generation, kernel or dispatch bug can never silently fork the
// wire format.
func TestImplementationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, 1<<16)
	rng.Read(buf)

	check := func(t *testing.T, e leg, p []byte) {
		t.Helper()
		if got, want := e.f(0, p), crc32.Checksum(p, stdTable); got != want {
			t.Fatalf("%s(%d bytes) = %08x, stdlib says %08x", e.name, len(p), got, want)
		}
	}
	for _, e := range append([]leg{{"Update", Update}}, engines...) {
		t.Run(e.name, func(t *testing.T) {
			needs(t, e.name)
			// Deliberate boundary lengths around the slicing strides and
			// the folding kernel's 16/64/256-byte steps.
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 255, 256, 257, 271, 272, 319, 320, 511, 512, 1024} {
				check(t, e, buf[:n])
			}
			// Random lengths at random (often unaligned) offsets.
			for range 500 {
				off := rng.Intn(len(buf))
				n := rng.Intn(len(buf) - off)
				check(t, e, buf[off:off+n])
			}
		})
	}
}

// TestEveryLengthAndAlignment runs each engine over every length from the
// folding floor through five blocks, at every offset within a cache line,
// from a random initial CRC: a wrong fold constant, a lost tail byte or a
// misplaced initial-CRC XOR shows as a mismatch at some length.
func TestEveryLengthAndAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 64+5*foldMin)
	rng.Read(buf)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			needs(t, e.name)
			for n := foldMin; n <= 5*foldMin; n++ {
				for off := range 64 {
					p, init := buf[off:off+n], rng.Uint32()
					if got, want := e.f(init, p), crc32.Update(init, stdTable, p); got != want {
						t.Fatalf("len %d offset %d init %08x: %08x, stdlib says %08x", n, off, init, got, want)
					}
				}
			}
		})
	}
}

// TestSplitsMixEngines splits one buffer at every offset — so at every
// residue of the 256-byte block and the 16-byte lane — and runs the halves
// through different engines: a running CRC must mean the same thing to
// all of them.
func TestSplitsMixEngines(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := make([]byte, 3*foldMin+foldMin/2+5)
	rng.Read(p)
	init := rng.Uint32()
	whole := crc32.Update(init, stdTable, p)
	for _, pair := range [][2]int{{0, 2}, {1, 0}, {0, 0}, {2, 1}, {2, 2}} {
		a, b := engines[pair[0]], engines[pair[1]]
		t.Run(a.name+"→"+b.name, func(t *testing.T) {
			needs(t, a.name, b.name)
			for k := 0; k <= len(p); k++ {
				if got := b.f(a.f(init, p[:k]), p[k:]); got != whole {
					t.Fatalf("split at %d: %08x != %08x", k, got, whole)
				}
			}
		})
	}
}

// TestPortableComposes verifies the slicing-by-8 fallback composes across
// arbitrary splits exactly like the fast path, so mid-stream dispatch
// differences cannot change a running CRC.
func TestPortableComposes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := make([]byte, 4096)
	rng.Read(p)
	whole := updatePortable(0, p)
	for trial := 0; trial < 100; trial++ {
		k := rng.Intn(len(p) + 1)
		if got := updatePortable(updatePortable(0, p[:k]), p[k:]); got != whole {
			t.Fatalf("split at %d: %08x != %08x", k, got, whole)
		}
		// Mixed engines mid-stream must agree too.
		if got := updateStdlib(updatePortable(0, p[:k]), p[k:]); got != whole {
			t.Fatalf("mixed split at %d: %08x != %08x", k, got, whole)
		}
	}
}

// TestFoldConstants pins the square-and-multiply derivation against the
// definition: x^n mod P by shifting one bit at a time in normal order,
// then bit-reversed into 64 bits.
func TestFoldConstants(t *testing.T) {
	serial := func(n int) uint64 {
		r := uint64(1)
		for range n {
			if r <<= 1; r&(1<<32) != 0 {
				r ^= 1<<32 | 0x1EDC6F41
			}
		}
		return bits.Reverse64(r)
	}
	var want [6]uint64
	for i, d := range []int{2048, 512, 128} {
		want[2*i], want[2*i+1] = serial(d+63), serial(d-1)
	}
	if got := foldConstants(); got != want {
		t.Fatalf("foldConstants() = %#x, bit-serial x^n mod P says %#x", got, want)
	}
}

// TestDispatch: the folding engine is in use exactly when the CPU has what
// it needs, and Engine names the function update actually points at. On
// linux/amd64 the kernel's own CPU flags are an independent witness.
func TestDispatch(t *testing.T) {
	names := map[string]func(uint32, []byte) uint32{}
	for _, e := range engines {
		names[e.name] = e.f
	}
	f, ok := names[Engine()]
	if !ok {
		t.Fatalf("Engine() = %q, not one of the three engines", Engine())
	}
	if reflect.ValueOf(update).Pointer() != reflect.ValueOf(f).Pointer() {
		t.Fatalf("Engine() = %q but update points elsewhere", Engine())
	}
	if missing := foldMissing(); (missing == "") != (Engine() == "vpclmulqdq") {
		t.Fatalf("Engine() = %q with foldMissing() = %q", Engine(), missing)
	}
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(val)
			break
		}
	}
	avx512f, vpclmulqdq := slices.Contains(flags, "avx512f"), slices.Contains(flags, "vpclmulqdq")
	if (avx512f && vpclmulqdq) != (Engine() == "vpclmulqdq") {
		t.Fatalf("Engine() = %q but /proc/cpuinfo has avx512f=%v vpclmulqdq=%v", Engine(), avx512f, vpclmulqdq)
	}
}

// FuzzCRC32C: arbitrary bytes, initial CRC and split point through every
// available engine, whole and split, against hash/crc32.
func FuzzCRC32C(f *testing.F) {
	f.Add([]byte("123456789"), uint32(0), uint16(4))
	f.Add(bytes.Repeat([]byte{0xa5}, 3*foldMin+17), uint32(0xdeadbeef), uint16(foldMin+1))
	f.Add(make([]byte, foldMin), ^uint32(0), uint16(0))
	f.Fuzz(func(t *testing.T, p []byte, init uint32, split uint16) {
		want := crc32.Update(init, stdTable, p)
		k := int(split) % (len(p) + 1)
		for _, e := range engines {
			if e.name == "vpclmulqdq" && foldMissing() != "" {
				continue
			}
			if got := e.f(init, p); got != want {
				t.Fatalf("%s(%08x, %d bytes) = %08x, stdlib says %08x", e.name, init, len(p), got, want)
			}
			if got := e.f(e.f(init, p[:k]), p[k:]); got != want {
				t.Fatalf("%s split at %d of %d: %08x, stdlib says %08x", e.name, k, len(p), got, want)
			}
		}
	})
}

// BenchmarkEngines times each engine per call at the sizes the stack
// CRCs: a small segment, a 1 KiB payload, a page and a 64 KiB message.
func BenchmarkEngines(b *testing.B) {
	p := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(p)
	for _, e := range engines {
		for _, n := range []int{512, 1 << 10, 4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%d", e.name, n), func(b *testing.B) {
				needs(b, e.name)
				b.SetBytes(int64(n))
				for b.Loop() {
					e.f(0, p[:n])
				}
			})
		}
	}
}
