//go:build linux && (amd64 || arm64)

// Raw sendmmsg(2)/recvmmsg(2) plumbing: the struct layouts and syscall
// wrappers the kernel batch datapath (udp_linux.go) is built on. Everything
// here is mechanical ABI translation; policy (probing, fallback, buffer
// ownership) lives one file up.
//
// The build tag pins the two 64-bit ABIs this file's struct padding is laid
// out for: struct mmsghdr is struct msghdr (56 bytes on LP64) plus a u32
// msg_len, padded to the 8-byte stride the kernel indexes the array by.
// Other GOARCHes take the portable path via udp_nommsg.go.

package transport

import (
	"net/netip"
	"syscall"
	"unsafe"
)

// Linux UAPI constants not exported by package syscall.
const (
	udpSegment     = 103 // UDP_SEGMENT: setsockopt + cmsg type, SOL_UDP level
	udpGRO         = 104 // UDP_GRO: setsockopt + cmsg type, SOL_UDP level
	udpMaxSegments = 64  // UDP_MAX_SEGMENTS: kernel cap on GSO segments per send
)

// mmsgMax is the widest burst one sendmmsg/recvmmsg call carries; the
// per-endpoint header and iovec arrays are preallocated at this width. It
// matches udpMaxSegments so a full GSO burst and a full mmsg burst size the
// same arrays.
const mmsgMax = 64

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-written
// per-message byte count, padded to the LP64 array stride.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sendmmsg transmits up to vlen messages from hdrs in one syscall. It
// returns the number of messages sent; errno is 0 on success and EAGAIN
// when the socket buffer is full before the first message.
func sendmmsg(fd uintptr, hdrs *mmsghdr, vlen int, flags uintptr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
		uintptr(unsafe.Pointer(hdrs)), uintptr(vlen), flags, 0, 0)
	return int(n), errno
}

// recvmmsg fills up to vlen messages into hdrs in one syscall. It returns
// the number of messages received; errno is EAGAIN when the socket holds no
// data (the caller always passes MSG_DONTWAIT — blocking happens in the
// netpoller, not in the syscall).
func recvmmsg(fd uintptr, hdrs *mmsghdr, vlen int, flags uintptr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
		uintptr(unsafe.Pointer(hdrs)), uintptr(vlen), flags, 0, 0)
	return int(n), errno
}

// gsoCmsgSpace is the control-buffer size of one UDP_SEGMENT cmsg carrying
// a uint16 segment size.
var gsoCmsgSpace = syscall.CmsgSpace(2)

// putGSOCmsg writes a UDP_SEGMENT control message carrying segsz into buf
// and returns the control length to set. buf must hold gsoCmsgSpace bytes.
func putGSOCmsg(buf []byte, segsz uint16) int {
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[0]))
	h.Level = syscall.IPPROTO_UDP
	h.Type = udpSegment
	h.SetLen(syscall.CmsgLen(2))
	*(*uint16)(unsafe.Pointer(&buf[syscall.CmsgLen(0)])) = segsz
	return syscall.CmsgSpace(2)
}

// groSegSize walks a received control buffer and returns the UDP_GRO
// segment size, or 0 when the kernel did not coalesce this datagram.
//
//diwarp:hotpath
func groSegSize(buf []byte, controllen int) int {
	// Manual cmsg walk: syscall.ParseSocketControlMessage allocates, and
	// this runs once per received datagram.
	for off := 0; off+syscall.CmsgLen(0) <= controllen; {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&buf[off]))
		if h.Len < uint64(syscall.CmsgLen(0)) {
			return 0
		}
		if h.Level == syscall.IPPROTO_UDP && h.Type == udpGRO && int(h.Len) >= syscall.CmsgLen(4) {
			return int(*(*int32)(unsafe.Pointer(&buf[off+syscall.CmsgLen(0)])))
		}
		off += syscall.CmsgSpace(int(h.Len) - syscall.CmsgLen(0))
	}
	return 0
}

// rawDest is a destination sockaddr encoded for the socket's family. The
// name pointer targets the struct's own storage, so a msghdr armed with it
// stays valid for as long as the rawDest does.
type rawDest struct {
	sa4     syscall.RawSockaddrInet4
	sa6     syscall.RawSockaddrInet6
	name    *byte
	namelen uint32
}

// encode fills rd for to in the given address family (syscall.AF_INET or
// AF_INET6). IPv4 destinations on a v6 socket are encoded v4-mapped,
// mirroring what the net package does below WriteToUDPAddrPort (which
// also takes a 4-in-6 destination on a v4 socket); an IPv6 destination on
// a v4 socket, or an invalid one, is rejected.
//
//diwarp:hotpath
func (rd *rawDest) encode(family int, to netip.AddrPort) bool {
	ip := to.Addr().Unmap()
	switch {
	case family == syscall.AF_INET && ip.Is4():
		rd.sa4.Family = syscall.AF_INET
		rd.sa4.Addr = ip.As4()
		htons(&rd.sa4.Port, to.Port())
		rd.name = (*byte)(unsafe.Pointer(&rd.sa4))
		rd.namelen = syscall.SizeofSockaddrInet4
	case family == syscall.AF_INET6 && ip.IsValid():
		rd.sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: ip.As16()}
		htons(&rd.sa6.Port, to.Port())
		rd.name = (*byte)(unsafe.Pointer(&rd.sa6))
		rd.namelen = syscall.SizeofSockaddrInet6
	default:
		return false
	}
	return true
}

// htons stores port into a RawSockaddr port field, which the kernel reads
// in network byte order regardless of the field's declared uint16 type.
func htons(dst *uint16, port uint16) {
	b := (*[2]byte)(unsafe.Pointer(dst))
	b[0], b[1] = byte(port>>8), byte(port)
}

// ntohs reads a network-byte-order RawSockaddr port field.
func ntohs(src *uint16) uint16 {
	b := (*[2]byte)(unsafe.Pointer(src))
	return uint16(b[0])<<8 | uint16(b[1])
}
