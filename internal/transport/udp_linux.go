//go:build linux && (amd64 || arm64)

package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/nio"
)

// kernelBatch is the kernel batch datapath behind UDPEndpoint's
// SendBatch/RecvBatch seams (DESIGN.md §4.9): bursts move through one
// sendmmsg(2)/recvmmsg(2) syscall instead of one syscall per datagram, and —
// when the capability probe says the kernel cooperates — same-destination
// bursts of equal-size segments collapse into a single UDP_SEGMENT (GSO)
// send while receives accept UDP_GRO-coalesced super-segments and split
// them back into per-datagram pooled buffers.
//
// All mmsghdr/iovec/sockaddr/control arrays are preallocated at mmsgMax
// width and reused, and the syscalls run inside closures prebuilt at
// endpoint creation, so the steady-state burst path performs zero heap
// allocations. Send state is guarded by sendMu, receive state by recvMu:
// one vectored syscall under a mutex replaces N lock-free syscalls, which
// is a win from the first burst (the critical section is array fill plus
// one syscall).
//
// Blocking integrates with the runtime netpoller, not the thread: both
// closures issue the syscall with MSG_DONTWAIT and report EAGAIN back to
// syscall.RawConn.Read/Write, which parks the goroutine until the socket is
// ready (or the read deadline set by the caller expires). The first
// datagram of a burst therefore waits exactly like the portable path; the
// rest ride the same wakeup.
type kernelBatch struct {
	rc     syscall.RawConn
	feats  BatchFeatures // probe verdict; immutable after creation
	gsoOff atomic.Bool   // runtime GSO degrade (send path rejected the option)
	family int           // socket address family: AF_INET or AF_INET6

	// Send state, guarded by sendMu. dest is the burst's one destination,
	// encoded afresh per burst: a handful of stores, never a lookup.
	sendMu sync.Mutex
	dest   rawDest
	shdrs  [mmsgMax]mmsghdr
	siovs  [mmsgMax]syscall.Iovec
	sctrl  [32]byte // one UDP_SEGMENT cmsg (gsoCmsgSpace ≤ 32)
	sendFn func(uintptr) bool
	sview  int // vlen armed for sendFn
	sn     int // sendFn result: messages sent
	serrno syscall.Errno

	// Receive state, guarded by recvMu.
	recvMu sync.Mutex
	rhdrs  [mmsgMax]mmsghdr
	riovs  [mmsgMax]syscall.Iovec
	rnames [mmsgMax]syscall.RawSockaddrInet6
	rctrl  [mmsgMax][32]byte // per-message UDP_GRO cmsg space
	rbufs  [mmsgMax][]byte   // pooled buffers staged behind the headers, [0,staged) non-nil
	staged int               // buffers held across calls: armed for a harvest that left them empty
	rwant  int               // next arm width, before the caller's room bounds it (armRecv)
	recvFn func(uintptr) bool
	rview  int // vlen armed for recvFn
	rn     int // recvFn result: messages received
	rerrno syscall.Errno

	// pending queues GRO split-back overflow: datagrams recovered from a
	// coalesced super-segment beyond what the caller's burst arrays hold.
	// Served, in arrival order, before the next syscall.
	pending  []pendingPkt
	pendHead int

	// One-slot scratch for Recv on a GRO socket; results are copied out
	// under recvMu, so concurrent Recv calls never share the slot.
	onePkt  [1][]byte
	oneFrom [1]Addr
}

// pendingPkt is one split-back datagram awaiting delivery.
type pendingPkt struct {
	buf  []byte
	from Addr
}

// newKernelBatch probes the socket for batch capabilities and returns the
// kernel datapath, or nil when the probe says (or mode insists) the
// portable loop should run. The probe is a setsockopt/zero-length-syscall
// trial at endpoint creation — no capability matrix by kernel version, just
// "did the kernel take it".
func newKernelBatch(conn *net.UDPConn, mode batchMode) *kernelBatch {
	if mode == batchPortable {
		return nil
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	k := &kernelBatch{rc: rc, rwant: 1}
	la, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return nil
	}
	if la.IP.To4() != nil {
		k.family = syscall.AF_INET
	} else {
		k.family = syscall.AF_INET6
	}
	if err := rc.Control(func(fd uintptr) {
		// Zero-length trials: an ENOSYS kernel rejects the syscall itself,
		// a supporting kernel sends/receives nothing and returns 0.
		if n, errno := sendmmsg(fd, nil, 0, syscall.MSG_DONTWAIT); errno == 0 && n == 0 {
			k.feats.Sendmmsg = true
		}
		if _, errno := recvmmsg(fd, nil, 0, syscall.MSG_DONTWAIT); errno == 0 || errno == syscall.EAGAIN {
			k.feats.Recvmmsg = true
		}
		if mode == batchAuto {
			// UDP_SEGMENT 0 is "no per-socket segmentation": it proves the
			// option exists without changing behaviour (the send path passes
			// the segment size per burst via cmsg). UDP_GRO 1 arms receive
			// coalescing for the socket's lifetime.
			if k.feats.Sendmmsg && syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpSegment, 0) == nil {
				k.feats.GSO = true
			}
			if k.feats.Recvmmsg && syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) == nil {
				k.feats.GRO = true
			}
		}
	}); err != nil {
		return nil
	}
	if !k.feats.Sendmmsg && !k.feats.Recvmmsg {
		return nil
	}
	k.sendFn = func(fd uintptr) bool {
		for {
			n, errno := sendmmsg(fd, &k.shdrs[0], k.sview, syscall.MSG_DONTWAIT)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // socket buffer full: park in the netpoller
			}
			k.sn, k.serrno = n, errno
			return true
		}
	}
	k.recvFn = func(fd uintptr) bool {
		for {
			n, errno := recvmmsg(fd, &k.rhdrs[0], k.rview, syscall.MSG_DONTWAIT)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // nothing queued: park in the netpoller
			}
			k.rn, k.rerrno = n, errno
			return true
		}
	}
	return k
}

// features reports the probe's verdict, minus any runtime GSO degrade.
func (k *kernelBatch) features() BatchFeatures {
	f := k.feats
	if k.gsoOff.Load() {
		f.GSO = false
	}
	return f
}

// sendBatch transmits the burst through the kernel batch path: one GSO
// send when the burst is eligible, else sendmmsg in mmsgMax chunks. It
// matches BatchSender semantics — datagrams handed to the network before
// any error are counted.
func (k *kernelBatch) sendBatch(pkts [][]byte, to Addr) (int, error) {
	k.sendMu.Lock()
	defer k.sendMu.Unlock()
	rd := &k.dest
	if !rd.encode(k.family, to) {
		return 0, fmt.Errorf("%w: %s (address family mismatch)", ErrNoRoute, to)
	}
	if k.feats.GSO && !k.gsoOff.Load() {
		if segsz, ok := gsoEligible(pkts); ok {
			err := k.sendGSO(pkts, rd, segsz)
			if err == nil {
				observeBatch(1, int64(len(pkts)))
				return len(pkts), nil
			}
			if !gsoShouldFallback(err) {
				return 0, err
			}
			// The option probed fine but the send path rejected it (e.g. a
			// device without checksum offload): degrade to mmsg for good.
			k.gsoOff.Store(true)
			publishFeatures(k.features())
		}
	}
	var syscalls, sent int
	for sent < len(pkts) {
		k.armSend(pkts[sent:min(sent+mmsgMax, len(pkts))], rd)
		if err := k.rc.Write(k.sendFn); err != nil {
			observeBatch(int64(syscalls), int64(sent))
			return sent, mapRecvErr(err)
		}
		syscalls++
		if k.serrno != 0 {
			observeBatch(int64(syscalls), int64(sent))
			return sent, mapSendErrno(k.serrno)
		}
		if k.sn <= 0 {
			observeBatch(int64(syscalls), int64(sent))
			return sent, syscall.EIO
		}
		sent += k.sn
	}
	observeBatch(int64(syscalls), int64(sent))
	return sent, nil
}

// armSend fills the mmsg arrays for one sendmmsg chunk: one header and one
// iovec per datagram, all naming the same destination.
//
//diwarp:hotpath
func (k *kernelBatch) armSend(pkts [][]byte, rd *rawDest) {
	for i, p := range pkts {
		if len(p) > 0 {
			k.siovs[i].Base = &p[0]
		} else {
			k.siovs[i].Base = nil
		}
		k.siovs[i].SetLen(len(p))
		h := &k.shdrs[i].hdr
		h.Name = rd.name
		h.Namelen = rd.namelen
		h.Iov = &k.siovs[i]
		h.Iovlen = 1
		h.Control = nil
		h.SetControllen(0)
		h.Flags = 0
		k.shdrs[i].n = 0
	}
	k.sview = len(pkts)
}

// gsoEligible reports whether a burst can ride one UDP_SEGMENT send: at
// least two datagrams, every one the same size (the last may be smaller but
// not empty), within the kernel's segment-count cap, and a total payload
// that still fits one UDP datagram — the GSO buffer is a single send that
// the kernel cuts back into wire datagrams at segsz boundaries.
func gsoEligible(pkts [][]byte) (segsz int, ok bool) {
	if len(pkts) < 2 || len(pkts) > udpMaxSegments {
		return 0, false
	}
	segsz = len(pkts[0])
	if segsz == 0 {
		return 0, false
	}
	total := 0
	for i, p := range pkts {
		if len(p) != segsz && !(i == len(pkts)-1 && len(p) > 0 && len(p) < segsz) {
			return 0, false
		}
		total += len(p)
	}
	if total > MaxDatagramSize {
		return 0, false
	}
	return segsz, true
}

// sendGSO transmits the whole burst as one gathered send carrying a
// UDP_SEGMENT cmsg: the kernel re-cuts the payload into len(pkts) wire
// datagrams at segsz boundaries. Caller holds sendMu and has checked
// gsoEligible.
func (k *kernelBatch) sendGSO(pkts [][]byte, rd *rawDest, segsz int) error {
	k.armGSO(pkts, rd, segsz)
	if err := k.rc.Write(k.sendFn); err != nil {
		return mapRecvErr(err)
	}
	if k.serrno != 0 {
		return mapSendErrno(k.serrno)
	}
	return nil
}

// armGSO fills the first mmsg slot with the gathered burst and its
// UDP_SEGMENT control message.
//
//diwarp:hotpath
func (k *kernelBatch) armGSO(pkts [][]byte, rd *rawDest, segsz int) {
	for i, p := range pkts {
		k.siovs[i].Base = &p[0]
		k.siovs[i].SetLen(len(p))
	}
	h := &k.shdrs[0].hdr
	h.Name = rd.name
	h.Namelen = rd.namelen
	h.Iov = &k.siovs[0]
	h.Iovlen = uint64(len(pkts))
	h.Control = &k.sctrl[0]
	h.SetControllen(putGSOCmsg(k.sctrl[:], uint16(segsz)))
	h.Flags = 0
	k.shdrs[0].n = 0
	k.sview = 1
}

// gsoShouldFallback classifies a failed GSO send: option-level rejections
// mean the path (not the burst) is unusable and the endpoint should degrade
// to plain mmsg; anything else is a real send error.
func gsoShouldFallback(err error) bool {
	switch err {
	case syscall.EIO, syscall.EINVAL, syscall.EOPNOTSUPP:
		return true
	}
	return false
}

// mapSendErrno folds send-side errnos into the transport vocabulary.
func mapSendErrno(errno syscall.Errno) error {
	switch errno {
	case syscall.EBADF:
		return ErrClosed
	case syscall.EMSGSIZE:
		return ErrTooLarge
	}
	return errno
}

// recvBatch is the kernel RecvBatch: pending split-back datagrams first,
// then one recvmmsg riding the netpoller wakeup. Contract matches
// BatchRecver — block up to timeout for the first datagram, return n ≥ 1 on
// nil error, never wait for the batch to fill (recvmmsg with MSG_DONTWAIT
// takes only what is already queued).
func (k *kernelBatch) recvBatch(e *UDPEndpoint, pkts [][]byte, froms []Addr, timeout time.Duration) (int, error) {
	max := min(len(pkts), len(froms))
	if max == 0 {
		return 0, nil
	}
	k.recvMu.Lock()
	defer k.recvMu.Unlock()
	return k.recvLocked(e, pkts, froms, max, timeout)
}

// recvOne is Recv on a GRO socket: coalesced super-segments must flow
// through the split-back path even for single-datagram receives, or a
// caller would see two datagrams fused into one. Results are copied out of
// the one-slot scratch under recvMu.
func (k *kernelBatch) recvOne(e *UDPEndpoint, timeout time.Duration) ([]byte, Addr, error) {
	k.recvMu.Lock()
	defer k.recvMu.Unlock()
	n, err := k.recvLocked(e, k.onePkt[:], k.oneFrom[:], 1, timeout)
	if err != nil || n == 0 {
		return nil, Addr{}, err
	}
	buf, from := k.onePkt[0], k.oneFrom[0]
	k.onePkt[0] = nil
	return buf, from, nil
}

// recvLocked runs the receive state machine under recvMu: serve pending,
// else arm pooled buffers, park until readable (or deadline), harvest, and
// split super-segments. Loops only in the pathological all-truncated case.
func (k *kernelBatch) recvLocked(e *UDPEndpoint, pkts [][]byte, froms []Addr, max int, timeout time.Duration) (int, error) {
	if n := k.takePending(pkts, froms, max); n > 0 {
		return n, nil
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if err := e.conn.SetReadDeadline(deadline); err != nil {
			return 0, mapRecvErr(err)
		}
		k.armRecv(e.pool, min(max, k.rwant))
		err := k.rc.Read(k.recvFn)
		if timeout > 0 {
			// Never leave a stale deadline armed on the shared socket: a
			// following blocking Recv must block, not inherit this wait.
			_ = e.conn.SetReadDeadline(time.Time{}) //diwarp:ignore errflow: restoring after a successful arm; a dead socket resurfaces on the next read
		}
		if err == nil && k.rerrno != 0 {
			err = mapSendErrno(k.rerrno)
		}
		if err != nil {
			k.releaseRecv(e.pool)
			return 0, mapRecvErr(err)
		}
		n := k.finishRecv(e, pkts, froms, max)
		if n > 0 {
			return n, nil
		}
		// Every datagram of the burst was truncated garbage (possible only
		// for a GRO blob beyond the pool's buffer size): wait again.
	}
}

// takePending moves queued split-back datagrams into the caller's arrays,
// preserving arrival order.
func (k *kernelBatch) takePending(pkts [][]byte, froms []Addr, max int) int {
	n := 0
	for n < max && k.pendHead < len(k.pending) {
		p := &k.pending[k.pendHead]
		pkts[n], froms[n] = p.buf, p.from
		p.buf = nil
		k.pendHead++
		n++
	}
	if k.pendHead == len(k.pending) {
		k.pending = k.pending[:0]
		k.pendHead = 0
	}
	return n
}

// armRecv arms vlen receive slots. A slot keeps the pooled buffer a previous
// call staged and the kernel left empty; only the slots past those draw from
// the pool. Control space is attached only on GRO sockets — without
// coalescing there is nothing to parse and the kernel skips the copy.
//
// The width is the socket's own recent traffic, not the caller's room: a
// caller asking for 32 on a socket that delivers one datagram per wakeup
// would otherwise draw 32 buffers from the pool and put 31 back on every
// call. rwant starts at 1, doubles (up to mmsgMax) after a harvest that
// filled every armed slot — more may be queued than was asked for — and is
// otherwise one more than the harvest, so a steady burst size is taken in
// one syscall with one buffer to spare.
//
//diwarp:hotpath
func (k *kernelBatch) armRecv(pool *nio.Pool, vlen int) {
	for i := 0; i < vlen; i++ {
		buf := k.rbufs[i]
		if buf == nil {
			buf, _ = pool.TryGet()
			buf = buf[:cap(buf)]
			k.rbufs[i] = buf
		}
		k.riovs[i].Base = &buf[0]
		k.riovs[i].SetLen(len(buf))
		h := &k.rhdrs[i].hdr
		h.Name = (*byte)(unsafe.Pointer(&k.rnames[i]))
		h.Namelen = syscall.SizeofSockaddrInet6
		h.Iov = &k.riovs[i]
		h.Iovlen = 1
		if k.feats.GRO {
			h.Control = &k.rctrl[i][0]
			h.SetControllen(len(k.rctrl[i]))
		} else {
			h.Control = nil
			h.SetControllen(0)
		}
		h.Flags = 0
		k.rhdrs[i].n = 0
	}
	k.staged = max(k.staged, vlen)
	k.rview = vlen
}

// keepStaged closes a harvest of rn datagrams: the buffers armed but not
// filled move to the front of the ring, where the next arm finds them, and
// the next arm width follows what the socket just delivered.
func (k *kernelBatch) keepStaged(rn int) {
	n := copy(k.rbufs[:], k.rbufs[rn:k.staged])
	clear(k.rbufs[n:k.staged])
	k.staged = n
	if rn == k.rview {
		k.rwant = min(2*k.rview, mmsgMax)
	} else {
		k.rwant = rn + 1
	}
}

// close returns the staged buffers once the socket is closed. A receiver
// parked under recvMu has been woken by the close and releases them itself
// on its way out; this takes the ones no receiver was holding.
func (k *kernelBatch) close(pool *nio.Pool) {
	k.recvMu.Lock()
	k.releaseRecv(pool)
	k.recvMu.Unlock()
}

// releaseRecv returns every staged buffer to the pool: after a receive
// error, and at close.
func (k *kernelBatch) releaseRecv(pool *nio.Pool) {
	for i, buf := range k.rbufs[:k.staged] {
		pool.Put(buf)
		k.rbufs[i] = nil
	}
	k.staged = 0
}

// finishRecv harvests one recvmmsg result: truncated datagrams are dropped,
// GRO super-segments are split back into per-datagram buffers (the first
// segment keeps the pooled receive buffer, trailing segments copy into
// fresh pooled buffers, overflow queues on pending), and sources arrive
// as the kernel decoded them. Returns how many datagrams landed in the
// caller's arrays.
//
//diwarp:hotpath
func (k *kernelBatch) finishRecv(e *UDPEndpoint, pkts [][]byte, froms []Addr, max int) int {
	out := 0
	delivered := 0
	for i := 0; i < k.rn; i++ {
		buf := k.rbufs[i][:k.rhdrs[i].n]
		if k.rhdrs[i].hdr.Flags&syscall.MSG_TRUNC != 0 {
			// A coalesced blob larger than the pool's 64 KB buffers: the
			// tail is gone, so the whole datagram is unusable. UD semantics
			// absorb the drop.
			e.pool.Put(buf)
			continue
		}
		from := decodeAddr(&k.rnames[i])
		segsz := 0
		if k.feats.GRO {
			segsz = groSegSize(k.rctrl[i][:], int(k.rhdrs[i].hdr.Controllen))
		}
		if segsz <= 0 || len(buf) <= segsz {
			out = k.emit(pkts, froms, max, out, buf, from)
			delivered++
			continue
		}
		total := len(buf)
		out = k.emit(pkts, froms, max, out, buf[:segsz], from)
		delivered++
		for off := segsz; off < total; off += segsz {
			end := min(off+segsz, total)
			nb, _ := e.pool.TryGet()
			nb = nb[:end-off]
			copy(nb, buf[off:end])
			out = k.emit(pkts, froms, max, out, nb, from)
			delivered++
		}
	}
	k.keepStaged(k.rn)
	observeBatch(1, int64(delivered))
	return out
}

// emit places one datagram into the caller's arrays, spilling to the
// pending queue once they are full.
func (k *kernelBatch) emit(pkts [][]byte, froms []Addr, max, out int, buf []byte, from Addr) int {
	if out < max {
		pkts[out], froms[out] = buf, from
		return out + 1
	}
	k.pending = append(k.pending, pendingPkt{buf: buf, from: from})
	return out
}

// decodeAddr converts a kernel-written sockaddr into an Addr, unmapping
// the 4-in-6 form a dual-stack socket reports IPv4 peers in.
//
//diwarp:hotpath
func decodeAddr(sa *syscall.RawSockaddrInet6) Addr {
	if sa.Family == syscall.AF_INET {
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), ntohs(&sa4.Port))
	}
	return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), ntohs(&sa.Port))
}
