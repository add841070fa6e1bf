package peertab

import (
	"encoding/binary"
	"net/netip"
)

// HashAddr is the stack's one peer hash: rudp's and msg's peer tables both
// stripe by it, so one peer lands on the same shard index at every layer.
// It reads the address as two 64-bit words of its 16-byte form, folds the
// port into the low word's top bits (always zero for an IPv4 address, so
// distinct IPv4 peers never collide before mixing), and finishes with a
// bijective 64-bit mix whose low 32 bits are the stripe hash — a few
// multiplies, never a byte loop. An IPv4 address, the common case, is read through As4: the
// same words, without the 16-byte round trip through memory that As16
// costs (several times the rest of the hash).
//
//diwarp:hotpath
func HashAddr(ap netip.AddrPort) uint32 {
	a := ap.Addr()
	var hi, lo uint64
	if a.Is4() {
		b := a.As4()
		lo = 0xffff<<32 | uint64(binary.BigEndian.Uint32(b[:])) // ::ffff:a.b.c.d
	} else {
		b := a.As16()
		hi, lo = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])
	}
	return uint32(mix64(lo ^ uint64(ap.Port())<<48 ^ mix64(hi)))
}

// mix64 is MurmurHash3's 64-bit finalizer: a bijection that spreads every
// input bit across the output.
//
//diwarp:hotpath
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
