package nio

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecLen(t *testing.T) {
	cases := []struct {
		v    Vec
		want int
	}{
		{nil, 0},
		{VecOf(), 0},
		{VecOf([]byte("abc")), 3},
		{VecOf([]byte("ab"), nil, []byte("cde")), 5},
	}
	for i, c := range cases {
		if got := c.v.Len(); got != c.want {
			t.Errorf("case %d: Len() = %d, want %d", i, got, c.want)
		}
	}
}

func TestVecGatherScatterRoundTrip(t *testing.T) {
	v := VecOf(make([]byte, 3), make([]byte, 0), make([]byte, 7), make([]byte, 1))
	src := []byte("hello world")
	if n := v.Scatter(src); n != 11 {
		t.Fatalf("Scatter copied %d bytes, want 11", n)
	}
	dst := make([]byte, 11)
	if n := v.Gather(dst); n != 11 {
		t.Fatalf("Gather copied %d bytes, want 11", n)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch: got %q want %q", dst, src)
	}
}

func TestVecGatherShortDst(t *testing.T) {
	v := VecOf([]byte("abcdef"))
	dst := make([]byte, 4)
	if n := v.Gather(dst); n != 4 {
		t.Fatalf("Gather = %d, want 4", n)
	}
	if string(dst) != "abcd" {
		t.Fatalf("got %q", dst)
	}
}

func TestVecScatterShortSrc(t *testing.T) {
	v := VecOf(make([]byte, 2), make([]byte, 2))
	if n := v.Scatter([]byte("xyz")); n != 3 {
		t.Fatalf("Scatter = %d, want 3", n)
	}
	if got := string(v.Bytes()[:3]); got != "xyz" {
		t.Fatalf("got %q", got)
	}
}

func TestVecBytesSingleSegmentNoCopy(t *testing.T) {
	seg := []byte("abc")
	v := VecOf(seg)
	out := v.Bytes()
	out[0] = 'z'
	if seg[0] != 'z' {
		t.Fatal("single-segment Bytes should alias the segment")
	}
}

func TestVecSlice(t *testing.T) {
	v := VecOf([]byte("abc"), []byte("defg"), []byte("hi"))
	cases := []struct {
		off, n int
		want   string
	}{
		{0, 0, ""},
		{0, 3, "abc"},
		{1, 3, "bcd"},
		{3, 4, "defg"},
		{2, 6, "cdefgh"},
		{8, 1, "i"},
		{0, 9, "abcdefghi"},
	}
	for i, c := range cases {
		got := string(v.Slice(c.off, c.n).Bytes())
		if got != c.want {
			t.Errorf("case %d: Slice(%d,%d) = %q, want %q", i, c.off, c.n, got, c.want)
		}
	}
}

func TestVecSlicePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Slice out of range did not panic")
		}
	}()
	VecOf([]byte("ab")).Slice(1, 5)
}

func TestVecSliceSharesStorage(t *testing.T) {
	seg := []byte("abcdef")
	sub := VecOf(seg).Slice(2, 2)
	sub[0][0] = 'X'
	if seg[2] != 'X' {
		t.Fatal("Slice must share storage with the parent vector")
	}
}

// Property: for random segmentations, Slice(off, n) over a Vec equals
// slicing the flattened bytes.
func TestVecSliceMatchesFlatQuick(t *testing.T) {
	f := func(data []byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var v Vec
		rest := data
		for len(rest) > 0 {
			k := 1 + rng.Intn(len(rest))
			v = append(v, rest[:k])
			rest = rest[k:]
		}
		flat := v.Bytes()
		if !bytes.Equal(flat, data) {
			return false
		}
		if len(data) == 0 {
			return true
		}
		off := rng.Intn(len(data))
		n := rng.Intn(len(data) - off + 1)
		return bytes.Equal(v.Slice(off, n).Bytes(), data[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVecAppendRangeMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := VecOf(make([]byte, 13), make([]byte, 0), make([]byte, 29), make([]byte, 7))
	for _, s := range v {
		rng.Read(s)
	}
	total := v.Len()
	for trial := 0; trial < 200; trial++ {
		off := rng.Intn(total + 1)
		n := rng.Intn(total - off + 1)
		want := v.Slice(off, n).AppendTo([]byte("prefix"))
		got := v.AppendRange([]byte("prefix"), off, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendRange(%d, %d) diverges from Slice+AppendTo", off, n)
		}
	}
}

func TestVecAppendRangePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRange past the end did not panic")
		}
	}()
	VecOf([]byte("abc")).AppendRange(nil, 2, 5)
}

func TestVecAppendRangeAllocFree(t *testing.T) {
	v := VecOf(make([]byte, 100), make([]byte, 100))
	dst := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(500, func() {
		dst = v.AppendRange(dst[:0], 37, 120)
	})
	if allocs != 0 {
		t.Fatalf("AppendRange allocates %.2f times per run, want 0", allocs)
	}
}

// TestVecAppendRangeCRCMatchesAppendRange: the fused gather appends exactly
// AppendRange's bytes, and its CRC, seeded with the CRC of the prefix, is
// the CRC of the whole result — across segment boundaries and at lengths
// on both sides of the folding kernel's 256-byte floor.
func TestVecAppendRangeCRCMatchesAppendRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	v := VecOf(make([]byte, 13), make([]byte, 0), make([]byte, 700), make([]byte, 7), make([]byte, 2000))
	for _, s := range v {
		rng.Read(s)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	total := v.Len()
	for trial := 0; trial < 500; trial++ {
		off := rng.Intn(total + 1)
		n := rng.Intn(total - off + 1)
		prefix := []byte("prefix")
		want := v.AppendRange(append([]byte(nil), prefix...), off, n)
		got, crc := v.AppendRangeCRC(append([]byte(nil), prefix...), off, n, crc32.Checksum(prefix, castagnoli))
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendRangeCRC(%d, %d) diverges from AppendRange", off, n)
		}
		if wantCRC := crc32.Checksum(want, castagnoli); crc != wantCRC {
			t.Fatalf("AppendRangeCRC(%d, %d): CRC %08x, want %08x", off, n, crc, wantCRC)
		}
	}
}

func TestVecAppendRangeCRCAllocFree(t *testing.T) {
	v := VecOf(make([]byte, 100), make([]byte, 1000))
	dst := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(500, func() {
		dst, _ = v.AppendRangeCRC(dst[:0], 37, 900, 0)
	})
	if allocs != 0 {
		t.Fatalf("AppendRangeCRC allocates %.2f times per run, want 0", allocs)
	}
}

func TestPool(t *testing.T) {
	p := NewPool(64)
	if p.BufSize() != 64 {
		t.Fatalf("BufSize = %d", p.BufSize())
	}
	b := p.Get()
	if len(b) != 0 || cap(b) != 64 {
		t.Fatalf("Get returned len=%d cap=%d", len(b), cap(b))
	}
	b = append(b, []byte("sensitive")...)
	p.Put(b)
	b2 := p.Get()
	if len(b2) != 0 {
		t.Fatalf("recycled buffer has non-zero length %d", len(b2))
	}
	// Foreign-capacity buffers must be rejected silently.
	p.Put(make([]byte, 10))
}

func TestPoolPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestWireHelpers(t *testing.T) {
	var b []byte
	b = PutU16(b, 0x0102)
	b = PutU32(b, 0x03040506)
	b = PutU64(b, 0x0708090a0b0c0d0e)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 0xa, 0xb, 0xc, 0xd, 0xe}
	if !bytes.Equal(b, want) {
		t.Fatalf("encoded %x, want %x", b, want)
	}
	if U16(b) != 0x0102 || U32(b[2:]) != 0x03040506 || U64(b[6:]) != 0x0708090a0b0c0d0e {
		t.Fatal("decode mismatch")
	}
}
