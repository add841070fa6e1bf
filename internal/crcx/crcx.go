// Package crcx implements the CRC32C (Castagnoli) integrity framing used by
// the iWARP stack. The MPA specification mandates CRC32C over each FPDU, and
// the paper's datagram mode "always requires the use of CRC32" on every
// segment because the UDP-layer checksum is assumed disabled for performance.
//
// Three bit-identical engines back the package; one is chosen once at init
// and named by Engine:
//
//   - "vpclmulqdq": a carry-less-multiply folding kernel (fold_amd64.s)
//     that folds four 64-byte accumulators 256 bytes per step with AVX-512
//     VPCLMULQDQ — the per-byte cost the paper assumes an RNIC would
//     absorb, at vector rather than scalar-instruction speed. Chosen on
//     amd64 when CPUID reports AVX-512F and VPCLMULQDQ and the OS saves the
//     ZMM state; inputs under 256 bytes go to hash/crc32.
//   - "stdlib": hash/crc32's Castagnoli engine, which uses hardware CRC32C
//     instructions (SSE4.2 on amd64, the ARMv8 CRC32 extension on arm64,
//     the s390x and ppc64le vector engines). Chosen on those architectures
//     when the folding kernel is not.
//   - "portable": a self-contained slicing-by-8 fallback over locally
//     generated tables, so the stack never depends on hardware CRC support,
//     mirroring the software iWARP implementation evaluated in the paper.
//     Chosen everywhere else.
//
// CopyUpdate — a copy that checksums the bytes it copies — dispatches the
// same way: the folding kernel stores every block it loads, so a send path
// that must copy its payload anyway reads it once; the other two engines
// copy, then checksum the copy.
//
// The choice has no knob: the CPU decides. All three compose mid-stream
// and match hash/crc32 bit for bit; crosscheck_test.go and FuzzCRC32C pin
// them against each other and the standard library.
package crcx

import (
	"hash/crc32"
	"runtime"
)

// castagnoli is the reversed representation of the CRC32C polynomial
// 0x1EDC6F41 used by iSCSI, SCTP, and iWARP.
const castagnoli = 0x82F63B78

// tables[0] is the classic byte-at-a-time table; tables[1..7] extend it for
// slicing-by-8, processing eight bytes per step.
var tables = func() (t [8][256]uint32) {
	for i := range 256 {
		crc := uint32(i)
		for range 8 {
			if crc&1 != 0 {
				crc = crc>>1 ^ castagnoli
			} else {
				crc >>= 1
			}
		}
		t[0][i] = crc
	}
	for i := range 256 {
		crc := t[0][i]
		for k := 1; k < 8; k++ {
			crc = t[0][crc&0xff] ^ crc>>8
			t[k][i] = crc
		}
	}
	return t
}()

// stdTable drives the stdlib fast path. hash/crc32 selects a hardware
// Castagnoli implementation internally when the CPU provides one.
var stdTable = crc32.MakeTable(crc32.Castagnoli)

// update and copyUpdate are the engine every public entry point dispatches
// through, and engine its name, chosen once at package init.
var update, copyUpdate, engine = pick()

func pick() (func(uint32, []byte) uint32, func(uint32, []byte, []byte) uint32, string) {
	if foldMissing() == "" {
		return updateFold, copyUpdateFold, "vpclmulqdq"
	}
	// hash/crc32 keys its hardware dispatch on CPU features this package
	// does not re-check; the architectures below are the ones where the
	// runtime carries a hardware (or vectorized) Castagnoli engine. Even
	// when the specific CPU lacks the instructions, the stdlib's
	// slicing-by-8 fallback is no slower than ours.
	switch runtime.GOARCH {
	case "amd64", "arm64", "s390x", "ppc64le":
		return updateStdlib, copyUpdateStdlib, "stdlib"
	}
	return updatePortable, copyUpdatePortable, "portable"
}

// Engine names the engine in use: "vpclmulqdq", "stdlib" or "portable".
func Engine() string { return engine }

// updateStdlib is hash/crc32's Castagnoli engine, which uses
// CRC32 instructions where the CPU has them. Its Update composes exactly
// like ours (state is un-inverted at the API boundary), so the two are
// interchangeable mid-stream.
//
//diwarp:hotpath
func updateStdlib(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, stdTable, p)
}

// updatePortable is the dependency-free fallback: slicing-by-8 over the
// locally generated tables.
//
//diwarp:hotpath
func updatePortable(crc uint32, p []byte) uint32 {
	crc = ^crc
	for len(p) >= 8 {
		lo := crc ^ (uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24)
		hi := uint32(p[4]) | uint32(p[5])<<8 | uint32(p[6])<<16 | uint32(p[7])<<24
		crc = tables[7][lo&0xff] ^
			tables[6][lo>>8&0xff] ^
			tables[5][lo>>16&0xff] ^
			tables[4][lo>>24] ^
			tables[3][hi&0xff] ^
			tables[2][hi>>8&0xff] ^
			tables[1][hi>>16&0xff] ^
			tables[0][hi>>24]
		p = p[8:]
	}
	for _, b := range p {
		crc = tables[0][byte(crc)^b] ^ crc>>8
	}
	return ^crc
}

// Update adds the bytes of p to the running CRC crc and returns the result.
// Start a new computation with crc == 0.
//
//diwarp:hotpath
func Update(crc uint32, p []byte) uint32 { return update(crc, p) }

// CopyUpdate copies src into dst, like the copy built-in, and adds the
// bytes it copied to the running CRC crc in the same pass, returning the
// result: Update(crc, dst[:n]) after copy(dst, src) = n. The folding engine
// stores every block it loads for the CRC, so the bytes are read once; the
// other engines copy, then checksum the copy while it is still in cache.
// dst and src must not partially overlap.
//
//diwarp:hotpath
func CopyUpdate(dst, src []byte, crc uint32) uint32 {
	n := min(len(dst), len(src))
	return copyUpdate(crc, dst[:n], src[:n])
}

// copyUpdateStdlib and copyUpdatePortable are CopyUpdate's two-pass
// engines: copy, then the engine of the same name over the copy.
//
//diwarp:hotpath
func copyUpdateStdlib(crc uint32, dst, src []byte) uint32 {
	copy(dst, src)
	return updateStdlib(crc, dst)
}

//diwarp:hotpath
func copyUpdatePortable(crc uint32, dst, src []byte) uint32 {
	copy(dst, src)
	return updatePortable(crc, dst)
}

// Checksum returns the CRC32C of p.
//
//diwarp:hotpath
func Checksum(p []byte) uint32 { return update(0, p) }

// Size is the number of bytes a CRC32C trailer occupies on the wire.
const Size = 4
