// Package nio provides small I/O building blocks shared by every layer of
// the datagram-iWARP stack: gather/scatter I/O vectors, reference-counted
// buffer pools, and byte-order helpers.
//
// The software implementation described in the paper "takes advantage of I/O
// vectors to minimize data copying"; Vec is the Go equivalent used on both
// the send path (gather) and the placement path (scatter).
package nio

import (
	"fmt"
	"slices"

	"repro/internal/crcx"
)

// Vec is a gather/scatter I/O vector: an ordered list of byte slices that
// together form one logical message. The zero value is an empty vector.
type Vec [][]byte

// VecOf builds a Vec from the given segments without copying.
func VecOf(segs ...[]byte) Vec { return Vec(segs) }

// Len returns the total number of bytes covered by the vector.
func (v Vec) Len() int {
	n := 0
	for _, s := range v {
		n += len(s)
	}
	return n
}

// Gather copies the vector's bytes into dst and returns the number copied.
// dst may be shorter than v.Len(); the copy stops when dst is full.
func (v Vec) Gather(dst []byte) int {
	n := 0
	for _, s := range v {
		if n == len(dst) {
			break
		}
		n += copy(dst[n:], s)
	}
	return n
}

// Bytes flattens the vector into a single freshly allocated slice.
// A single-segment vector returns its segment without copying.
func (v Vec) Bytes() []byte {
	if len(v) == 1 {
		return v[0]
	}
	out := make([]byte, v.Len())
	v.Gather(out)
	return out
}

// Slice returns a sub-vector covering bytes [off, off+n) of the logical
// message, sharing the underlying storage. It panics if the range is out of
// bounds, mirroring Go slice semantics.
func (v Vec) Slice(off, n int) Vec {
	if off < 0 || n < 0 || off+n > v.Len() {
		panic(fmt.Sprintf("nio: Vec.Slice(%d, %d) out of range for length %d", off, n, v.Len()))
	}
	var out Vec
	for _, s := range v {
		if n == 0 {
			break
		}
		if off >= len(s) {
			off -= len(s)
			continue
		}
		take := len(s) - off
		if take > n {
			take = n
		}
		out = append(out, s[off:off+take])
		off = 0
		n -= take
	}
	return out
}

// AppendRange appends bytes [off, off+n) of the logical message to dst and
// returns the extended slice. It is the allocation-free equivalent of
// v.Slice(off, n).AppendTo(dst) — the segmented send path cuts messages with
// it without materializing a sub-vector per segment. It panics if the range
// is out of bounds, mirroring Go slice semantics.
//
//diwarp:hotpath
func (v Vec) AppendRange(dst []byte, off, n int) []byte {
	if off < 0 || n < 0 || off+n > v.Len() {
		rangePanic(off, n, v.Len())
	}
	for _, s := range v {
		if n == 0 {
			break
		}
		if off >= len(s) {
			off -= len(s)
			continue
		}
		take := len(s) - off
		if take > n {
			take = n
		}
		dst = append(dst, s[off:off+take]...)
		off = 0
		n -= take
	}
	return dst
}

// AppendRangeCRC is AppendRange that also adds the appended bytes to the
// running CRC32C crc, in the same pass over them (crcx.CopyUpdate), and
// returns the extended slice and the updated CRC. A send path that seeds
// crc with the CRC of what dst already holds ends with the CRC of the whole
// buffer without reading it again.
//
//diwarp:hotpath
func (v Vec) AppendRangeCRC(dst []byte, off, n int, crc uint32) ([]byte, uint32) {
	if off < 0 || n < 0 || off+n > v.Len() {
		rangePanic(off, n, v.Len())
	}
	dst = slices.Grow(dst, n)
	for _, s := range v {
		if n == 0 {
			break
		}
		if off >= len(s) {
			off -= len(s)
			continue
		}
		take := min(len(s)-off, n)
		k := len(dst)
		dst = dst[:k+take]
		crc = crcx.CopyUpdate(dst[k:], s[off:off+take], crc)
		off = 0
		n -= take
	}
	return dst, crc
}

// rangePanic is AppendRange's cold failure path, outlined so the annotated
// hot path stays fmt-free.
func rangePanic(off, n, length int) {
	panic(fmt.Sprintf("nio: Vec.AppendRange(%d, %d) out of range for length %d", off, n, length))
}

// AppendTo appends the vector's bytes to dst and returns the extended slice.
func (v Vec) AppendTo(dst []byte) []byte {
	for _, s := range v {
		dst = append(dst, s...)
	}
	return dst
}

// Scatter copies src across the vector's segments in order, returning the
// number of bytes copied (min of len(src) and v.Len()).
func (v Vec) Scatter(src []byte) int {
	n := 0
	for _, s := range v {
		if n == len(src) {
			break
		}
		n += copy(s, src[n:])
	}
	return n
}
