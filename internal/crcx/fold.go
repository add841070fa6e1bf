package crcx

// foldMin is the shortest input the folding engine takes: its kernel
// loads four 64-byte accumulators before the first fold.
const foldMin = 256

// foldConstants derives the folding kernel's multipliers (fold_amd64.s):
// for each fold distance d of 2048, 512 and 128 bits, the pair
// x^(d+63) mod P and x^(d-1) mod P, bit-reversed into 64 bits — the
// operand layout VPCLMULQDQ sees in a reflected lane. Computed, not
// transcribed, so a typo cannot fork the wire format.
func foldConstants() (k [6]uint64) {
	for i, d := range [3]int{2048, 512, 128} {
		// uint64(r)<<32 is bits.Reverse64 of the normal-order remainder.
		k[2*i] = uint64(xnModP(d+63)) << 32
		k[2*i+1] = uint64(xnModP(d-1)) << 32
	}
	return k
}

// xnModP returns x^n mod P in the reflected representation (x^j at bit
// 31-j), by square-and-multiply.
func xnModP(n int) uint32 {
	r, sq := uint32(1)<<31, uint32(1)<<30 // x^0, x^1
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r = mulModP(r, sq)
		}
		sq = mulModP(sq, sq)
	}
	return r
}

// mulModP multiplies two reflected polynomials modulo P.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for i := range 32 {
		if a&(1<<31>>i) != 0 {
			p ^= b
		}
		b = b>>1 ^ castagnoli&-(b&1) // b·x mod P
	}
	return p
}
