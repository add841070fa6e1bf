//go:build linux && (amd64 || arm64)

package transport

import (
	"net/netip"
	"syscall"
	"testing"
	"unsafe"
)

func TestGSOEligible(t *testing.T) {
	seg := func(n int) []byte { return make([]byte, n) }
	cases := []struct {
		name  string
		pkts  [][]byte
		segsz int
		ok    bool
	}{
		{"empty burst", nil, 0, false},
		{"single", [][]byte{seg(512)}, 0, false},
		{"equal pair", [][]byte{seg(512), seg(512)}, 512, true},
		{"smaller tail", [][]byte{seg(512), seg(512), seg(100)}, 512, true},
		{"empty tail", [][]byte{seg(512), seg(0)}, 0, false},
		{"larger tail", [][]byte{seg(512), seg(600)}, 0, false},
		{"ragged middle", [][]byte{seg(512), seg(100), seg(512)}, 0, false},
		{"zero segments", [][]byte{seg(0), seg(0)}, 0, false},
	}
	over := make([][]byte, udpMaxSegments+1)
	for i := range over {
		over[i] = seg(8)
	}
	cases = append(cases, struct {
		name  string
		pkts  [][]byte
		segsz int
		ok    bool
	}{"over segment cap", over, 0, false})
	// 2×33000 > MaxDatagramSize: the GSO buffer is one UDP datagram.
	cases = append(cases, struct {
		name  string
		pkts  [][]byte
		segsz int
		ok    bool
	}{"over datagram size", [][]byte{seg(33000), seg(33000)}, 0, false})
	for _, tc := range cases {
		segsz, ok := gsoEligible(tc.pkts)
		if ok != tc.ok || segsz != tc.segsz {
			t.Errorf("%s: gsoEligible = (%d, %v), want (%d, %v)",
				tc.name, segsz, ok, tc.segsz, tc.ok)
		}
	}
}

// TestGROCmsgWalk feeds groSegSize kernel-shaped control buffers: the
// UDP_GRO cmsg (int payload) must parse, and foreign or truncated control
// data must read as "not coalesced".
func TestGROCmsgWalk(t *testing.T) {
	mk := func(level, typ int32, val int32) ([]byte, int) {
		buf := make([]byte, syscall.CmsgSpace(4))
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[0]))
		h.Level = level
		h.Type = typ
		h.SetLen(syscall.CmsgLen(4))
		*(*int32)(unsafe.Pointer(&buf[syscall.CmsgLen(0)])) = val
		return buf, len(buf)
	}
	if buf, n := mk(syscall.IPPROTO_UDP, udpGRO, 1400); groSegSize(buf, n) != 1400 {
		t.Fatalf("UDP_GRO cmsg: segsz = %d, want 1400", groSegSize(buf, n))
	}
	if buf, n := mk(syscall.SOL_SOCKET, syscall.SO_TIMESTAMP, 1400); groSegSize(buf, n) != 0 {
		t.Fatal("foreign cmsg parsed as GRO")
	}
	if buf, _ := mk(syscall.IPPROTO_UDP, udpGRO, 1400); groSegSize(buf, 0) != 0 {
		t.Fatal("zero controllen parsed as GRO")
	}
	// A foreign cmsg first, UDP_GRO second: the walk must step over it.
	first, _ := mk(syscall.IPPROTO_IP, 8, 0)
	second, _ := mk(syscall.IPPROTO_UDP, udpGRO, 999)
	both := append(first, second...)
	if groSegSize(both, len(both)) != 999 {
		t.Fatal("walk did not step over a leading foreign cmsg")
	}
}

// TestGSOCmsgLayout pins the UDP_SEGMENT control message putGSOCmsg builds
// against the kernel ABI: SOL_UDP level, UDP_SEGMENT type, uint16 payload.
func TestGSOCmsgLayout(t *testing.T) {
	buf := make([]byte, gsoCmsgSpace)
	n := putGSOCmsg(buf, 1472)
	if n != syscall.CmsgSpace(2) {
		t.Fatalf("control length %d, want %d", n, syscall.CmsgSpace(2))
	}
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[0]))
	if h.Level != syscall.IPPROTO_UDP || h.Type != udpSegment {
		t.Fatalf("cmsg level/type = %d/%d, want %d/%d",
			h.Level, h.Type, syscall.IPPROTO_UDP, udpSegment)
	}
	if h.Len != uint64(syscall.CmsgLen(2)) {
		t.Fatalf("cmsg len = %d, want %d", h.Len, syscall.CmsgLen(2))
	}
	if got := *(*uint16)(unsafe.Pointer(&buf[syscall.CmsgLen(0)])); got != 1472 {
		t.Fatalf("segment size payload = %d, want 1472", got)
	}
}

// TestKernelBatchPending drives the GRO split-back overflow queue directly:
// emit spills past the caller's arrays in arrival order, takePending serves
// the spill before any new syscall and resets its storage when drained.
func TestKernelBatchPending(t *testing.T) {
	k := &kernelBatch{}
	pkts := make([][]byte, 2)
	froms := make([]Addr, 2)
	from := netip.MustParseAddrPort("127.0.0.1:9")
	out := 0
	for i := 0; i < 5; i++ {
		out = k.emit(pkts, froms, 2, out, []byte{byte(i)}, from)
	}
	if out != 2 {
		t.Fatalf("emit filled %d slots, want 2", out)
	}
	if len(k.pending) != 3 {
		t.Fatalf("pending holds %d datagrams, want 3", len(k.pending))
	}
	if pkts[0][0] != 0 || pkts[1][0] != 1 {
		t.Fatal("caller slots out of arrival order")
	}
	// First drain: two of three pending.
	if n := k.takePending(pkts, froms, 2); n != 2 {
		t.Fatalf("takePending = %d, want 2", n)
	}
	if pkts[0][0] != 2 || pkts[1][0] != 3 || froms[0] != from {
		t.Fatal("pending served out of arrival order")
	}
	// Second drain: the last one, and the queue resets for reuse.
	if n := k.takePending(pkts, froms, 2); n != 1 || pkts[0][0] != 4 {
		t.Fatal("tail of the pending queue lost")
	}
	if len(k.pending) != 0 || k.pendHead != 0 {
		t.Fatalf("queue not reset after drain: len=%d head=%d", len(k.pending), k.pendHead)
	}
	if n := k.takePending(pkts, froms, 2); n != 0 {
		t.Fatalf("empty queue served %d datagrams", n)
	}
}

// TestDecodeAddr pins the sockaddr decode against both families, including
// the network-byte-order port fix-up and the unmapping of a 4-in-6 source.
func TestDecodeAddr(t *testing.T) {
	var sa6 syscall.RawSockaddrInet6
	sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&sa6))
	sa4.Family = syscall.AF_INET
	sa4.Addr = [4]byte{192, 0, 2, 7}
	htons(&sa4.Port, 4791)
	want4 := netip.MustParseAddrPort("192.0.2.7:4791")
	if ap := decodeAddr(&sa6); ap != want4 {
		t.Fatalf("AF_INET decode = %v, want %v", ap, want4)
	}

	sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: netip.MustParseAddr("::ffff:192.0.2.7").As16()}
	htons(&sa6.Port, 4791)
	if ap := decodeAddr(&sa6); ap != want4 {
		t.Fatalf("4-in-6 decode = %v, want %v", ap, want4)
	}

	sa6 = syscall.RawSockaddrInet6{}
	sa6.Family = syscall.AF_INET6
	sa6.Addr = [16]byte{0: 0x20, 1: 0x01, 2: 0x0d, 3: 0xb8, 15: 0x01}
	htons(&sa6.Port, 443)
	if ap, want := decodeAddr(&sa6), netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr), 443); ap != want {
		t.Fatalf("AF_INET6 decode = %v, want %v", ap, want)
	}
}

// TestRawDestEncode pins the destination encoder: v4 on a v4 socket, v4
// mapped onto a v6 socket, and the rejections — v6 on a v4 socket, and the
// zero Addr anywhere.
func TestRawDestEncode(t *testing.T) {
	to := netip.MustParseAddrPort("10.0.0.1:4791")
	var rd rawDest
	if !rd.encode(syscall.AF_INET, to) {
		t.Fatal("v4 destination rejected on a v4 socket")
	}
	if rd.namelen != syscall.SizeofSockaddrInet4 || rd.sa4.Addr != [4]byte{10, 0, 0, 1} {
		t.Fatal("v4 sockaddr mis-encoded")
	}
	if ntohs(&rd.sa4.Port) != 4791 {
		t.Fatalf("v4 port = %d, want 4791", ntohs(&rd.sa4.Port))
	}

	var rd6 rawDest
	if !rd6.encode(syscall.AF_INET6, to) {
		t.Fatal("v4-mapped destination rejected on a v6 socket")
	}
	if rd6.namelen != syscall.SizeofSockaddrInet6 || rd6.sa6.Addr != netip.MustParseAddr("::ffff:10.0.0.1").As16() {
		t.Fatal("v4-mapped sockaddr mis-encoded")
	}

	var rdm rawDest
	if !rdm.encode(syscall.AF_INET, netip.MustParseAddrPort("[::ffff:10.0.0.1]:4791")) || rdm.sa4 != rd.sa4 {
		t.Fatal("4-in-6 destination on a v4 socket not encoded as its IPv4 address")
	}

	var bad rawDest
	if bad.encode(syscall.AF_INET, netip.MustParseAddrPort("[2001:db8::1]:1")) {
		t.Fatal("v6 destination accepted on a v4 socket")
	}
	if bad.encode(syscall.AF_INET6, netip.AddrPort{}) || bad.encode(syscall.AF_INET, netip.AddrPort{}) {
		t.Fatal("the zero Addr encoded as a destination")
	}
}
