package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"repro/internal/nio"
)

// UDPEndpoint adapts a kernel UDP socket to the Datagram interface. It is
// the deployment LLP: cmd/iwarpd speaks datagram-iWARP over it across real
// networks, and the benchmarks can run over loopback with -transport=udp.
//
// The receive path is pooled: buffers come from a per-endpoint nio.Pool
// rather than a fresh 64 KB allocation per packet, and consumers hand them
// back through Recycle — the software analogue of a receive ring. Sources
// and destinations are netip.AddrPort values end to end (ReadFromUDPAddrPort,
// WriteToUDPAddrPort), so the per-packet path performs zero allocations in
// steady state with no address cache to keep.
//
// The send path is a queue: SendTo and SendBatch copy into the send
// engine's arena and return, and the engine's goroutine (udp_send.go) is
// the only code that sends on the socket.
type UDPEndpoint struct {
	conn *net.UDPConn
	mtu  int
	pool *nio.Pool
	// split holds the buffers GRO split-back copies segments of up to
	// splitBufSize into; nil on a socket without GRO.
	split *nio.Pool
	v4    bool // an IPv4 socket: IPv6 destinations are unroutable

	// kern is the kernel batch datapath (sendmmsg/recvmmsg + GSO/GRO,
	// DESIGN.md §4.9) when the platform and the capability probe allow it;
	// nil means every burst runs the portable loop below. feats caches the
	// probe's verdict for BatchFeatures.
	kern  *kernelBatch
	feats BatchFeatures

	tx sendQueue
}

var _ Datagram = (*UDPEndpoint)(nil)

// splitBufSize bounds the segments GRO split-back copies into a buffer of
// their own size class: a kernel-coalesced burst of MTU-sized datagrams —
// what one GSO send from a peer's send engine becomes on loopback — then
// pins 2 KiB per datagram the application holds, not a 64 KiB receive
// buffer each.
const splitBufSize = 2 << 10

// aLongTimeAgo is an expired deadline: setting it makes the next read
// non-blocking, which is how RecvBatch drains a burst after its first
// (blocking) read.
var aLongTimeAgo = time.Unix(1, 0)

// ListenUDP binds a UDP endpoint on host:port (port 0 picks a free port;
// host "" binds every address). The kernel batch datapath is probed per the
// DIWARP_UDP_BATCH environment override ("portable", "mmsg", else auto).
func ListenUDP(host string, port uint16) (*UDPEndpoint, error) {
	return listenUDPMode(host, port, envBatchMode())
}

// hostPort joins a bind host and port into the net package's "host:port".
func hostPort(host string, port uint16) string {
	return net.JoinHostPort(host, strconv.Itoa(int(port)))
}

// listenUDPMode is ListenUDP with the batch-capability probe pinned to
// mode: batchAuto probes everything, batchMmsg forgoes the GSO/GRO
// offloads, batchPortable forces the one-syscall-per-datagram loop. Tests
// use it to run the identical suite over every fallback tier.
func listenUDPMode(host string, port uint16, mode batchMode) (*UDPEndpoint, error) {
	laddr, err := net.ResolveUDPAddr("udp", hostPort(host, port))
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	// Large socket buffers keep zero-loss benchmarks honest: the paper's
	// stack relies on the kernel's UDP buffering below it.
	_ = conn.SetReadBuffer(8 << 20)  //diwarp:ignore errflow: socket-option tuning: kernels cap, not fail, oversized requests
	_ = conn.SetWriteBuffer(8 << 20) //diwarp:ignore errflow: socket-option tuning: kernels cap, not fail, oversized requests
	la, _ := conn.LocalAddr().(*net.UDPAddr)
	e := &UDPEndpoint{
		conn: conn,
		mtu:  DefaultMTU,
		pool: nio.NewPool(MaxDatagramSize),
		v4:   la != nil && la.IP.To4() != nil,
	}
	e.kern = newKernelBatch(conn, e.v4, mode)
	if e.kern != nil {
		e.feats = e.kern.features()
	}
	if e.feats.GRO {
		e.split = nio.NewPool(splitBufSize)
	}
	publishFeatures(e.feats)
	e.tx.start(e)
	return e, nil
}

// BatchFeatures reports the capability probe's verdict for this endpoint.
func (e *UDPEndpoint) BatchFeatures() BatchFeatures {
	if e.kern != nil {
		return e.kern.features() // reflects any runtime GSO degrade
	}
	return e.feats
}

// SendTo implements Datagram: SendBatch of one.
func (e *UDPEndpoint) SendTo(p []byte, to Addr) error {
	one := [1][]byte{p}
	_, err := e.SendBatch(one[:], to)
	return err
}

// SendBatch implements Datagram. It copies the burst into the send
// engine's queue and returns; the engine sends it in call order, riding
// one GSO send or sendmmsg per same-destination run where the kernel
// allows. What can be known at the call is an error here: a datagram over
// MaxDatagramSize (nothing is queued), a destination the socket's address
// family cannot reach, a closed endpoint. A datagram the kernel refuses
// once queued is a drop, counted in diwarp_transport_tx_dropped_total.
func (e *UDPEndpoint) SendBatch(pkts [][]byte, to Addr) (int, error) {
	for _, p := range pkts {
		if len(p) > MaxDatagramSize {
			return 0, ErrTooLarge
		}
	}
	if !e.routable(to) {
		return 0, fmt.Errorf("%w: %s (address family mismatch)", ErrNoRoute, to)
	}
	return e.tx.queue(pkts, to)
}

// routable reports whether the socket's address family reaches to: an
// IPv4 socket takes IPv4 (or 4-in-6) destinations, an IPv6 one any valid
// address.
func (e *UDPEndpoint) routable(to Addr) bool {
	if e.v4 {
		return to.Addr().Unmap().Is4()
	}
	return to.Addr().IsValid()
}

// writeBatch transmits a run one syscall per datagram: the send engine's
// portable tier, and its only one on platforms without sendmmsg.
//
//diwarp:hotpath
func (e *UDPEndpoint) writeBatch(pkts [][]byte, to Addr) (int, error) {
	for i, p := range pkts {
		if _, err := e.conn.WriteToUDPAddrPort(p, to); err != nil {
			observeBatch(int64(i), int64(i))
			return i, err
		}
	}
	observeBatch(int64(len(pkts)), int64(len(pkts)))
	return len(pkts), nil
}

// mapRecvErr folds the net package's deadline and close errors into the
// transport vocabulary.
func mapRecvErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return ErrTimeout
	}
	if errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

// readPooled performs one socket read into a pooled buffer, reporting the
// source as the kernel decoded it. The buffer is returned to the pool on
// error. This is the per-packet unit both Recv and RecvBatch are built on.
//
//diwarp:hotpath
func (e *UDPEndpoint) readPooled() ([]byte, Addr, error) {
	buf, _ := e.pool.TryGet()
	buf = buf[:e.pool.BufSize()]
	n, ap, err := e.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		e.pool.Put(buf)
		return nil, Addr{}, mapRecvErr(err)
	}
	return buf[:n], unmap(ap), nil
}

// Recv implements Datagram. The returned buffer is pool-backed: the caller
// owns it and may hand it back through Recycle once consumed. On a GRO
// socket the receive routes through the kernel path's split-back machinery
// so a kernel-coalesced super-segment is never delivered as one datagram.
func (e *UDPEndpoint) Recv(timeout time.Duration) ([]byte, Addr, error) {
	if e.kern != nil && e.feats.GRO {
		return e.kern.recvOne(e, timeout)
	}
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := e.conn.SetReadDeadline(deadline); err != nil {
		return nil, Addr{}, mapRecvErr(err)
	}
	return e.readPooled()
}

// RecvBatch implements Datagram. With the kernel batch datapath probed
// in, the whole burst arrives through one recvmmsg(2) (MSG_DONTWAIT after
// the netpoller's blocking wakeup, so the contract is unchanged: wait for
// the first datagram, take the rest only if already queued). The portable
// fallback below costs one syscall per queued packet plus one returning
// EWOULDBLOCK, against one wakeup and one deadline-arm for the burst.
func (e *UDPEndpoint) RecvBatch(pkts [][]byte, froms []Addr, timeout time.Duration) (int, error) {
	if e.kern != nil && e.feats.Recvmmsg {
		return e.kern.recvBatch(e, pkts, froms, timeout)
	}
	max := min(len(pkts), len(froms))
	if max == 0 {
		return 0, nil
	}
	p, from, err := e.Recv(timeout)
	if err != nil {
		return 0, err
	}
	pkts[0], froms[0] = p, from
	n := 1
	if n == max {
		observeBatch(1, 1)
		return n, nil
	}
	// Drain without blocking: an expired deadline turns further reads into
	// EWOULDBLOCK probes of the socket buffer.
	if err := e.conn.SetReadDeadline(aLongTimeAgo); err != nil {
		return n, nil //diwarp:ignore errflow: the burst's first packet is already delivered; the deadline error will resurface on the next blocking read
	}
	syscalls := int64(1) // the blocking first read
	for n < max {
		syscalls++
		p, from, err := e.readPooled()
		if err != nil {
			break // ErrTimeout: socket drained; ErrClosed: next call reports it
		}
		pkts[n], froms[n] = p, from
		n++
	}
	// Restore the deadline the drain expired: a blocking read that follows
	// (or races) this burst must wait for data, not inherit a deadline
	// already in the past.
	_ = e.conn.SetReadDeadline(time.Time{}) //diwarp:ignore errflow: the burst is already delivered; a dead socket resurfaces on the next blocking read
	observeBatch(syscalls, int64(n))
	return n, nil
}

// Recycle implements Datagram: fully-consumed receive buffers return to the
// endpoint's pool of their size. Foreign buffers are dropped by the pool's
// capacity check.
func (e *UDPEndpoint) Recycle(p []byte) {
	if e.split != nil && cap(p) == splitBufSize {
		e.split.Put(p)
		return
	}
	e.pool.Put(p)
}

// RecvPoolStats implements Datagram: the receive pools' cumulative
// hit/miss counters.
func (e *UDPEndpoint) RecvPoolStats() (hits, misses int64) {
	hits, misses = e.pool.Stats()
	if e.split != nil {
		h, m := e.split.Stats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

// LocalAddr implements Datagram.
func (e *UDPEndpoint) LocalAddr() Addr {
	return unmap(e.conn.LocalAddr().(*net.UDPAddr).AddrPort())
}

// MaxDatagram implements Datagram.
func (e *UDPEndpoint) MaxDatagram() int { return MaxDatagramSize }

// PathMTU implements Datagram.
func (e *UDPEndpoint) PathMTU() int { return e.mtu }

// Close implements Datagram. Everything queued before it is sent first;
// the send engine has exited when it returns, and SendTo/SendBatch report
// ErrClosed from then on. Closing again does nothing.
func (e *UDPEndpoint) Close() error {
	if !e.tx.shut() {
		return nil
	}
	err := e.conn.Close()
	if e.kern != nil {
		e.kern.close(e.pool)
	}
	return err
}
