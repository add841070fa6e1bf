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

type copyLeg struct {
	name string
	f    func(uint32, []byte, []byte) uint32
}

// copyEngines are CopyUpdate's engines, by the name Engine reports for the
// Update engine each is chosen with.
var copyEngines = []copyLeg{
	{"vpclmulqdq", copyUpdateFold},
	{"stdlib", copyUpdateStdlib},
	{"portable", copyUpdatePortable},
}

// checkCopy runs one CopyUpdate engine from init over src into a dst of the
// same length, filled beforehand with bytes src does not hold, and fails
// unless the CRC is hash/crc32's over src and dst now equals src.
func checkCopy(t testing.TB, e copyLeg, init uint32, dst, src []byte) {
	t.Helper()
	for i := range dst {
		dst[i] = ^src[i]
	}
	if got, want := e.f(init, dst, src), crc32.Update(init, stdTable, src); got != want {
		t.Fatalf("%s copy of %d bytes from %08x: %08x, stdlib says %08x", e.name, len(src), init, got, want)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("%s copy of %d bytes: dst differs from src", e.name, len(src))
	}
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
	// CopyUpdate, dispatched and per engine, over the same kind of inputs.
	dst := make([]byte, len(buf))
	public := copyLeg{"CopyUpdate", func(crc uint32, dst, src []byte) uint32 { return CopyUpdate(dst, src, crc) }}
	for _, e := range append([]copyLeg{public}, copyEngines...) {
		t.Run("copy/"+e.name, func(t *testing.T) {
			needs(t, e.name)
			for range 500 {
				off := rng.Intn(len(buf))
				n := rng.Intn(len(buf) - off)
				doff := rng.Intn(len(dst) - n + 1)
				checkCopy(t, e, 0, dst[doff:doff+n], buf[off:off+n])
			}
		})
	}
}

// TestCopyUpdateIsCopy: CopyUpdate copies what the copy built-in would —
// min(len(dst), len(src)) bytes — and checksums exactly those.
func TestCopyUpdateIsCopy(t *testing.T) {
	src := make([]byte, 3*foldMin)
	rand.New(rand.NewSource(11)).Read(src)
	for _, c := range []struct{ dst, src int }{{0, 10}, {10, 0}, {300, 700}, {700, 300}, {768, 768}} {
		dst := make([]byte, c.dst+1)
		n := min(c.dst, c.src)
		if got, want := CopyUpdate(dst[:c.dst], src[:c.src], 5), crc32.Update(5, stdTable, src[:n]); got != want {
			t.Fatalf("dst %d src %d: %08x, want the CRC of the %d bytes copied, %08x", c.dst, c.src, got, n, want)
		}
		if !bytes.Equal(dst[:n], src[:n]) || slices.ContainsFunc(dst[n:], func(b byte) bool { return b != 0 }) {
			t.Fatalf("dst %d src %d: wrote other than the first %d bytes", c.dst, c.src, n)
		}
	}
}

// TestEveryLengthAndAlignment runs each engine over every length from the
// folding floor through five blocks, at every offset within a cache line,
// from a random initial CRC: a wrong fold constant, a lost tail byte or a
// misplaced initial-CRC XOR shows as a mismatch at some length. Then each
// CopyUpdate engine, likewise.
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
	// The CopyUpdate engines over every length 0..1024 and 64 KiB ± 1, with
	// src and dst each misaligned within a cache line independently: the
	// CRC must match and dst must equal src, so a lost tail store or a store
	// one block off shows at some length.
	src := make([]byte, 64+64<<10+1)
	dst := make([]byte, len(src))
	rng.Read(src)
	for _, e := range copyEngines {
		t.Run("copy/"+e.name, func(t *testing.T) {
			needs(t, e.name)
			for n := 0; n <= 1024; n++ {
				for soff := range 64 {
					doff := (soff*7 + n) % 64
					checkCopy(t, e, rng.Uint32(), dst[doff:doff+n], src[soff:soff+n])
				}
			}
			for _, n := range []int{64<<10 - 1, 64 << 10, 64<<10 + 1} {
				for soff := range 64 {
					doff := rng.Intn(64)
					checkCopy(t, e, rng.Uint32(), dst[doff:doff+n], src[soff:soff+n])
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
// available engine, whole and split, against hash/crc32 — and through every
// CopyUpdate engine, into a dst at the split point's offset.
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
		dst := make([]byte, len(p)+k%64)
		for _, e := range copyEngines {
			if e.name == "vpclmulqdq" && foldMissing() != "" {
				continue
			}
			checkCopy(t, e, init, dst[k%64:], p)
		}
	})
}

// BenchmarkCopyUpdate times each CopyUpdate engine against the two passes
// it replaces — copy, then the same engine's Update — at the sizes the
// send path gathers: a 1 KiB segment, a 4 KiB eager message and a 64 KiB
// datagram. "hot" re-copies one source that stays in cache; "cold" walks a
// 64 MiB source, so every copy reads memory, as a gather from a large
// application buffer does.
func BenchmarkCopyUpdate(b *testing.B) {
	src := make([]byte, 64<<20)
	rand.New(rand.NewSource(1)).Read(src)
	dst := make([]byte, 64<<10)
	for _, e := range copyEngines {
		up := map[string]func(uint32, []byte) uint32{"vpclmulqdq": updateFold, "stdlib": updateStdlib, "portable": updatePortable}[e.name]
		for _, n := range []int{256, 512, 1 << 10, 4 << 10, 64 << 10} {
			for _, temp := range []string{"hot", "cold"} {
				stride := 0
				if temp == "cold" {
					stride = n
				}
				b.Run(fmt.Sprintf("%s/%d/%s/fused", e.name, n, temp), func(b *testing.B) {
					needs(b, e.name)
					b.SetBytes(int64(n))
					off := 0
					for b.Loop() {
						e.f(0, dst[:n], src[off:off+n])
						if off += stride; off+n > len(src) {
							off = 0
						}
					}
				})
				b.Run(fmt.Sprintf("%s/%d/%s/two-pass", e.name, n, temp), func(b *testing.B) {
					needs(b, e.name)
					b.SetBytes(int64(n))
					off := 0
					for b.Loop() {
						copy(dst[:n], src[off:off+n])
						up(0, dst[:n])
						if off += stride; off+n > len(src) {
							off = 0
						}
					}
				})
			}
		}
	}
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
