package crcx

// foldK holds the folding kernel's multipliers, derived once at init.
var foldK = foldConstants()

// foldUpdate is the AVX-512 VPCLMULQDQ folding kernel (fold_amd64.s).
// It requires len(p) >= foldMin and a CPU foldMissing approves.
//
//go:noescape
func foldUpdate(crc uint32, p []byte, k *[6]uint64) uint32

// foldCopyUpdate is foldUpdate that also stores every block it loads into
// dst, so src is read once for both the copy and the CRC (fold_amd64.s). It
// requires len(src) >= foldMin, len(dst) == len(src) and a CPU foldMissing
// approves.
//
//go:noescape
func foldCopyUpdate(crc uint32, dst, src []byte, k *[6]uint64) uint32

// cpuid and xgetbv execute the instructions of the same name.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// updateFold is the vector engine: the folding kernel from foldMin bytes
// up, hash/crc32 below, where the kernel cannot fill its accumulators.
//
//diwarp:hotpath
func updateFold(crc uint32, p []byte) uint32 {
	if len(p) < foldMin {
		return updateStdlib(crc, p)
	}
	return foldUpdate(crc, p, &foldK)
}

// copyUpdateFold is CopyUpdate's vector engine: the fused kernel from
// foldMin bytes up, copy and hash/crc32 below.
//
//diwarp:hotpath
func copyUpdateFold(crc uint32, dst, src []byte) uint32 {
	if len(src) < foldMin {
		return copyUpdateStdlib(crc, dst, src)
	}
	return foldCopyUpdate(crc, dst, src, &foldK)
}

// foldMissing names the first thing this CPU (or its OS) lacks for the
// folding kernel, or returns "" when the kernel can run: CRC32 and
// carry-less multiply, AVX-512F and VPCLMULQDQ, and an OS that saves the
// XMM, YMM, opmask and ZMM state (XCR0 & 0xE6).
func foldMissing() string {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return "CPUID leaf 7"
	}
	_, _, ecx1, _ := cpuid(1, 0)
	switch {
	case ecx1&(1<<20) == 0:
		return "SSE4.2"
	case ecx1&(1<<1) == 0:
		return "PCLMULQDQ"
	case ecx1&(1<<27) == 0:
		return "OSXSAVE"
	}
	if xcr0, _ := xgetbv(); xcr0&0xE6 != 0xE6 {
		return "OS-enabled ZMM state (XCR0)"
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	switch {
	case ebx7&(1<<16) == 0:
		return "AVX512F"
	case ecx7&(1<<10) == 0:
		return "VPCLMULQDQ"
	}
	return ""
}
