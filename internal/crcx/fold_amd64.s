#include "textflag.h"

// Carry-less-multiply folding for CRC32C (DESIGN.md §4.4 "CRC dispatch").
//
// A 16-byte lane loaded little-endian is the 128-bit bit-reflected
// polynomial H·x^64 + L (H = bytes 0..7, L = bytes 8..15). Folding it d bits
// forward onto the lane d bits later is H·(x^(d+64) mod P) + L·(x^d mod P);
// VPCLMULQDQ on reflected operands yields the product times x, which is
// why the constants in k (fold.go) are x^(d+63) and x^(d-1). Per 16-byte
// pair, k holds {H multiplier, L multiplier} for d = 2048 (k[0:2]),
// 512 (k[2:4]) and 128 (k[4:6]) bits. The folded 128 bits are congruent to
// the prefix they stand for, so the CRC32 instruction finishes them (from
// a zero register: the inverted initial CRC was XORed into the first
// dword) and then runs on over the < 16-byte tail.

// func foldUpdate(crc uint32, p []byte, k *[6]uint64) uint32
TEXT ·foldUpdate(SB), NOSPLIT, $0-44
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX

	// Four 64-byte accumulators over the first 256 bytes, the inverted
	// CRC XORed into the first dword.
	NOTL      AX
	VMOVD     AX, X4
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORD    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX

	// Fold each accumulator 256 bytes forward onto the next block.
	VBROADCASTI32X4 (DX), Z10

loop256:
	CMPQ       CX, $256
	JB         reduce
	VPCLMULQDQ $0x00, Z10, Z0, Z4
	VPCLMULQDQ $0x11, Z10, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z4, Z0
	VPCLMULQDQ $0x00, Z10, Z1, Z5
	VPCLMULQDQ $0x11, Z10, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z5, Z1
	VPCLMULQDQ $0x00, Z10, Z2, Z6
	VPCLMULQDQ $0x11, Z10, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z6, Z2
	VPCLMULQDQ $0x00, Z10, Z3, Z7
	VPCLMULQDQ $0x11, Z10, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z7, Z3
	ADDQ       $256, SI
	SUBQ       $256, CX
	JMP        loop256

reduce:
	// Z0 → Z1 → Z2 → Z3 at 64-byte distance, then whole 64-byte blocks
	// of the tail at the same distance.
	VBROADCASTI32X4 16(DX), Z10
	VPCLMULQDQ      $0x00, Z10, Z0, Z4
	VPCLMULQDQ      $0x11, Z10, Z0, Z0
	VPTERNLOGD      $0x96, Z4, Z0, Z1
	VPCLMULQDQ      $0x00, Z10, Z1, Z4
	VPCLMULQDQ      $0x11, Z10, Z1, Z1
	VPTERNLOGD      $0x96, Z4, Z1, Z2
	VPCLMULQDQ      $0x00, Z10, Z2, Z4
	VPCLMULQDQ      $0x11, Z10, Z2, Z2
	VPTERNLOGD      $0x96, Z4, Z2, Z3

loop64:
	CMPQ       CX, $64
	JB         lanes
	VPCLMULQDQ $0x00, Z10, Z3, Z4
	VPCLMULQDQ $0x11, Z10, Z3, Z3
	VPTERNLOGD $0x96, (SI), Z4, Z3
	ADDQ       $64, SI
	SUBQ       $64, CX
	JMP        loop64

lanes:
	// Z3's four lanes → X3 at 16-byte distance, then whole 16-byte
	// lanes of the tail at the same distance.
	VMOVDQU       32(DX), X10
	VEXTRACTI32X4 $1, Z3, X0
	VEXTRACTI32X4 $2, Z3, X1
	VEXTRACTI32X4 $3, Z3, X2
	VPCLMULQDQ    $0x00, X10, X3, X4
	VPCLMULQDQ    $0x11, X10, X3, X3
	VPXOR         X4, X3, X3
	VPXOR         X0, X3, X3
	VPCLMULQDQ    $0x00, X10, X3, X4
	VPCLMULQDQ    $0x11, X10, X3, X3
	VPXOR         X4, X3, X3
	VPXOR         X1, X3, X3
	VPCLMULQDQ    $0x00, X10, X3, X4
	VPCLMULQDQ    $0x11, X10, X3, X3
	VPXOR         X4, X3, X3
	VPXOR         X2, X3, X3

loop16:
	CMPQ       CX, $16
	JB         finish
	VPCLMULQDQ $0x00, X10, X3, X4
	VPCLMULQDQ $0x11, X10, X3, X3
	VPXOR      (SI), X4, X4
	VPXOR      X4, X3, X3
	ADDQ       $16, SI
	SUBQ       $16, CX
	JMP        loop16

finish:
	// CRC the 16 folded bytes from a zero register, then the tail.
	XORL    AX, AX
	VMOVQ   X3, BX
	CRC32Q  BX, AX
	VPEXTRQ $1, X3, BX
	CRC32Q  BX, AX
	CMPQ    CX, $8
	JB      tail1
	CRC32Q  (SI), AX
	ADDQ    $8, SI
	SUBQ    $8, CX

tail1:
	TESTQ  CX, CX
	JZ     done
	CRC32B (SI), AX
	INCQ   SI
	DECQ   CX
	JMP    tail1

done:
	NOTL       AX
	VZEROUPPER
	MOVL       AX, ret+40(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET

// foldUpdate with a store beside every load: each block the fold reads from
// src is written to dst from the same register, so the copy costs stores
// only. len(dst) == len(src) >= 256 (copyUpdateFold checks both). The fold
// itself is foldUpdate's, block for block.

// func foldCopyUpdate(crc uint32, dst, src []byte, k *[6]uint64) uint32
TEXT ·foldCopyUpdate(SB), NOSPLIT, $0-68
	MOVL crc+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	MOVQ k+56(FP), DX

	NOTL      AX
	VMOVD     AX, X4
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	VPXORD    Z4, Z0, Z0
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $256, CX

	VBROADCASTI32X4 (DX), Z10

cloop256:
	CMPQ       CX, $256
	JB         creduce
	VMOVDQU64  (SI), Z11
	VMOVDQU64  64(SI), Z12
	VMOVDQU64  128(SI), Z13
	VMOVDQU64  192(SI), Z14
	VPCLMULQDQ $0x00, Z10, Z0, Z4
	VPCLMULQDQ $0x11, Z10, Z0, Z0
	VPTERNLOGD $0x96, Z11, Z4, Z0
	VPCLMULQDQ $0x00, Z10, Z1, Z5
	VPCLMULQDQ $0x11, Z10, Z1, Z1
	VPTERNLOGD $0x96, Z12, Z5, Z1
	VPCLMULQDQ $0x00, Z10, Z2, Z6
	VPCLMULQDQ $0x11, Z10, Z2, Z2
	VPTERNLOGD $0x96, Z13, Z6, Z2
	VPCLMULQDQ $0x00, Z10, Z3, Z7
	VPCLMULQDQ $0x11, Z10, Z3, Z3
	VPTERNLOGD $0x96, Z14, Z7, Z3
	VMOVDQU64  Z11, (DI)
	VMOVDQU64  Z12, 64(DI)
	VMOVDQU64  Z13, 128(DI)
	VMOVDQU64  Z14, 192(DI)
	ADDQ       $256, SI
	ADDQ       $256, DI
	SUBQ       $256, CX
	JMP        cloop256

creduce:
	VBROADCASTI32X4 16(DX), Z10
	VPCLMULQDQ      $0x00, Z10, Z0, Z4
	VPCLMULQDQ      $0x11, Z10, Z0, Z0
	VPTERNLOGD      $0x96, Z4, Z0, Z1
	VPCLMULQDQ      $0x00, Z10, Z1, Z4
	VPCLMULQDQ      $0x11, Z10, Z1, Z1
	VPTERNLOGD      $0x96, Z4, Z1, Z2
	VPCLMULQDQ      $0x00, Z10, Z2, Z4
	VPCLMULQDQ      $0x11, Z10, Z2, Z2
	VPTERNLOGD      $0x96, Z4, Z2, Z3

cloop64:
	CMPQ       CX, $64
	JB         clanes
	VMOVDQU64  (SI), Z11
	VMOVDQU64  Z11, (DI)
	VPCLMULQDQ $0x00, Z10, Z3, Z4
	VPCLMULQDQ $0x11, Z10, Z3, Z3
	VPTERNLOGD $0x96, Z11, Z4, Z3
	ADDQ       $64, SI
	ADDQ       $64, DI
	SUBQ       $64, CX
	JMP        cloop64

clanes:
	VMOVDQU       32(DX), X10
	VEXTRACTI32X4 $1, Z3, X0
	VEXTRACTI32X4 $2, Z3, X1
	VEXTRACTI32X4 $3, Z3, X2
	VPCLMULQDQ    $0x00, X10, X3, X4
	VPCLMULQDQ    $0x11, X10, X3, X3
	VPXOR         X4, X3, X3
	VPXOR         X0, X3, X3
	VPCLMULQDQ    $0x00, X10, X3, X4
	VPCLMULQDQ    $0x11, X10, X3, X3
	VPXOR         X4, X3, X3
	VPXOR         X1, X3, X3
	VPCLMULQDQ    $0x00, X10, X3, X4
	VPCLMULQDQ    $0x11, X10, X3, X3
	VPXOR         X4, X3, X3
	VPXOR         X2, X3, X3

cloop16:
	CMPQ       CX, $16
	JB         cfinish
	VMOVDQU    (SI), X11
	VMOVDQU    X11, (DI)
	VPCLMULQDQ $0x00, X10, X3, X4
	VPCLMULQDQ $0x11, X10, X3, X3
	VPXOR      X11, X4, X4
	VPXOR      X4, X3, X3
	ADDQ       $16, SI
	ADDQ       $16, DI
	SUBQ       $16, CX
	JMP        cloop16

cfinish:
	XORL    AX, AX
	VMOVQ   X3, BX
	CRC32Q  BX, AX
	VPEXTRQ $1, X3, BX
	CRC32Q  BX, AX
	CMPQ    CX, $8
	JB      ctail1
	MOVQ    (SI), BX
	MOVQ    BX, (DI)
	CRC32Q  BX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	SUBQ    $8, CX

ctail1:
	TESTQ  CX, CX
	JZ     cdone
	MOVBLZX (SI), BX
	MOVB   BX, (DI)
	CRC32B BX, AX
	INCQ   SI
	INCQ   DI
	DECQ   CX
	JMP    ctail1

cdone:
	NOTL       AX
	VZEROUPPER
	MOVL       AX, ret+64(FP)
	RET
