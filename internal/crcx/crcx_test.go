package crcx

import (
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

var ref = crc32.MakeTable(crc32.Castagnoli)

func TestChecksumKnownVectors(t *testing.T) {
	// RFC 3720 (iSCSI) test vectors for CRC32C.
	cases := []struct {
		in   []byte
		want uint32
	}{
		{[]byte{}, 0},
		{make([]byte, 32), 0x8A9136AA},    // 32 bytes of zeros
		{[]byte("123456789"), 0xE3069283}, // classic check value
		{[]byte("The quick brown fox jumps over the lazy dog"), 0x22620404},
	}
	for i, c := range cases {
		if got := Checksum(c.in); got != c.want {
			t.Errorf("case %d: Checksum = %08x, want %08x", i, got, c.want)
		}
	}
}

func TestChecksumAllOnes(t *testing.T) {
	in := make([]byte, 32)
	for i := range in {
		in[i] = 0xff
	}
	if got := Checksum(in); got != 0x62A8AB43 {
		t.Fatalf("Checksum(ones) = %08x, want 62A8AB43", got)
	}
}

// Property: our implementation matches hash/crc32 Castagnoli bit-for-bit.
func TestMatchesStdlibQuick(t *testing.T) {
	f := func(p []byte) bool {
		return Checksum(p) == crc32.Checksum(p, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Update over split inputs equals Checksum over the whole.
func TestUpdateComposesQuick(t *testing.T) {
	f := func(p []byte, cut uint8) bool {
		k := int(cut)
		if k > len(p) {
			k = len(p)
		}
		return Update(Update(0, p[:k]), p[k:]) == Checksum(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: CRC32C detects every single-bit flip (it has Hamming distance
// ≥ 2 for any length we use).
func TestDetectsSingleBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(2048)
		p := make([]byte, n)
		rng.Read(p)
		orig := Checksum(p)
		bit := rng.Intn(n * 8)
		p[bit/8] ^= 1 << (bit % 8)
		if Checksum(p) == orig {
			t.Fatalf("single-bit flip at bit %d of %d bytes went undetected", bit, n)
		}
	}
}

func BenchmarkChecksum1K(b *testing.B) {
	p := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(p)
	b.SetBytes(1024)
	for b.Loop() {
		Checksum(p)
	}
}

func BenchmarkChecksum64K(b *testing.B) {
	p := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(p)
	b.SetBytes(64 << 10)
	for b.Loop() {
		Checksum(p)
	}
}
