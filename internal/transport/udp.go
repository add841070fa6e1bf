package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"time"

	"repro/internal/nio"
	"repro/internal/peertab"
)

// UDPEndpoint adapts a kernel UDP socket to the Datagram interface. It is
// the deployment LLP: cmd/iwarpd speaks datagram-iWARP over it across real
// networks, and the benchmarks can run over loopback with -transport=udp.
//
// The receive path is pooled: buffers come from a per-endpoint nio.Pool
// rather than a fresh 64 KB allocation per packet, and consumers hand them
// back through Recycle — the software analogue of a receive ring. Source
// addresses resolve through a small cache so the per-packet path performs
// zero allocations in steady state (ReadFromUDP's *net.UDPAddr and
// IP.String() would otherwise allocate twice per packet).
type UDPEndpoint struct {
	conn *net.UDPConn
	mtu  int
	pool *nio.Pool

	// kern is the kernel batch datapath (sendmmsg/recvmmsg + GSO/GRO,
	// DESIGN.md §4.9) when the platform and the capability probe allow it;
	// nil means every burst runs the portable loop below. feats caches the
	// probe's verdict for BatchFeatures.
	kern  *kernelBatch
	feats BatchFeatures
}

var _ Datagram = (*UDPEndpoint)(nil)

// maxAddrCache bounds the source-address cache (sources) and each kernel
// endpoint's destination cache; at the bound a cache is reset wholesale (one
// burst of re-resolution) rather than tracking LRU state on the per-packet
// path.
const maxAddrCache = 4096

// aLongTimeAgo is an expired deadline: setting it makes the next read
// non-blocking, which is how RecvBatch drains a burst after its first
// (blocking) read.
var aLongTimeAgo = time.Unix(1, 0)

// ListenUDP binds a UDP endpoint on host:port (port 0 picks a free port).
// The kernel batch datapath is probed per the DIWARP_UDP_BATCH environment
// override ("portable", "mmsg", else auto); ListenUDPMode pins it in code.
func ListenUDP(host string, port uint16) (*UDPEndpoint, error) {
	return ListenUDPMode(host, port, envBatchMode())
}

// ListenUDPMode is ListenUDP with the batch-capability probe pinned to
// mode: BatchAuto probes everything, BatchMmsg forgoes the GSO/GRO
// offloads, BatchPortable forces the one-syscall-per-datagram loop. Tests
// use it to run the identical suite over every fallback tier.
func ListenUDPMode(host string, port uint16, mode UDPBatchMode) (*UDPEndpoint, error) {
	ip := net.ParseIP(host)
	if ip == nil && host != "" {
		addrs, err := net.LookupIP(host)
		if err != nil || len(addrs) == 0 {
			return nil, fmt.Errorf("transport: cannot resolve %q: %w", host, err)
		}
		ip = addrs[0]
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: ip, Port: int(port)})
	if err != nil {
		return nil, err
	}
	// Large socket buffers keep zero-loss benchmarks honest: the paper's
	// stack relies on the kernel's UDP buffering below it.
	_ = conn.SetReadBuffer(8 << 20)  //diwarp:ignore errflow: socket-option tuning: kernels cap, not fail, oversized requests
	_ = conn.SetWriteBuffer(8 << 20) //diwarp:ignore errflow: socket-option tuning: kernels cap, not fail, oversized requests
	e := &UDPEndpoint{
		conn: conn,
		mtu:  DefaultMTU,
		pool: nio.NewPool(MaxDatagramSize),
	}
	e.kern = newKernelBatch(conn, mode)
	if e.kern != nil {
		e.feats = e.kern.features()
	}
	publishFeatures(e.feats)
	return e, nil
}

// BatchFeatures reports the capability probe's verdict for this endpoint.
func (e *UDPEndpoint) BatchFeatures() BatchFeatures {
	if e.kern != nil {
		return e.kern.features() // reflects any runtime GSO degrade
	}
	return e.feats
}

// resolve maps a transport.Addr to a UDP socket address.
func resolve(to Addr) (*net.UDPAddr, error) {
	ip := net.ParseIP(to.Node)
	if ip == nil {
		addrs, err := net.LookupIP(to.Node)
		if err != nil || len(addrs) == 0 {
			return nil, fmt.Errorf("%w: %s", ErrNoRoute, to)
		}
		ip = addrs[0]
	}
	return &net.UDPAddr{IP: ip, Port: int(to.Port)}, nil
}

// SendTo implements Datagram.
func (e *UDPEndpoint) SendTo(p []byte, to Addr) error {
	if len(p) > MaxDatagramSize {
		return ErrTooLarge
	}
	ua, err := resolve(to)
	if err != nil {
		return err
	}
	return e.writeOne(p, ua)
}

// writeOne is the portable per-datagram send step: one syscall to a
// resolved destination, under SendTo and the portable SendBatch loop alike.
//
//diwarp:hotpath
func (e *UDPEndpoint) writeOne(p []byte, ua *net.UDPAddr) error {
	_, err := e.conn.WriteToUDP(p, ua)
	if err != nil && errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

// SendBatch implements Datagram. With the kernel batch datapath probed
// in, the burst rides one sendmmsg(2) per mmsgMax chunk — or a single
// UDP_SEGMENT (GSO) send when every datagram is the same size — instead of
// one sendto per datagram; otherwise the portable writeBatch loop runs,
// paying one resolve for the burst.
func (e *UDPEndpoint) SendBatch(pkts [][]byte, to Addr) (int, error) {
	for _, p := range pkts {
		if len(p) > MaxDatagramSize {
			return 0, ErrTooLarge
		}
	}
	if e.kern != nil && e.feats.Sendmmsg {
		return e.kern.sendBatch(pkts, to)
	}
	ua, err := resolve(to)
	if err != nil {
		return 0, err
	}
	return e.writeBatch(pkts, ua)
}

// writeBatch transmits a resolved burst one syscall per datagram: the
// portable fallback behind the sendmmsg path, and the only path on
// platforms without it.
//
//diwarp:hotpath
func (e *UDPEndpoint) writeBatch(pkts [][]byte, ua *net.UDPAddr) (int, error) {
	for i, p := range pkts {
		if err := e.writeOne(p, ua); err != nil {
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

// readPooled performs one socket read into a pooled buffer and resolves the
// source through the address cache. The buffer is returned to the pool on
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
	return buf[:n], cachedAddr(ap), nil
}

// sources memoizes source-address rendering, keyed by the kernel's socket
// address: the per-packet hit is a lock-free snapshot lookup, and
// steady-state receives never re-render an IP. The rendering is a pure
// function of the socket address, so every endpoint shares one table.
var sources = peertab.New[netip.AddrPort, Addr](hashSource, peertab.Options{})

// hashSource stripes the source-address cache: FNV-1a over the 16-byte
// address form and the port.
//
//diwarp:hotpath
func hashSource(ap netip.AddrPort) uint32 {
	b := ap.Addr().As16()
	return peertab.HashUint32(peertab.HashBytes(peertab.Seed(), b[:]), uint32(ap.Port()))
}

// cachedAddr maps a socket address to a transport.Addr, memoizing the
// string form so steady-state receives never re-render an IP.
//
//diwarp:hotpath
func cachedAddr(ap netip.AddrPort) Addr {
	// The kernel reports IPv4 peers on a dual-stack socket as 4-in-6
	// (::ffff:a.b.c.d); unmap so the cached Node matches what resolve()
	// parses on the send side.
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	if ent := sources.Get(ap); ent != nil {
		return ent.V // written before the entry was published, never after
	}
	return cachedAddrSlow(ap)
}

// cachedAddrSlow renders and caches a first-seen source.
func cachedAddrSlow(ap netip.AddrPort) Addr {
	if sources.Len() >= maxAddrCache {
		sources.Clear(nil)
	}
	a := Addr{Node: ap.Addr().String(), Port: ap.Port()}
	ent, _, err := sources.GetOrCreate(ap, func(ent *peertab.Entry[netip.AddrPort, Addr]) { ent.V = a })
	if err != nil {
		return a // unreachable without Options.Capacity; the rendering is still right
	}
	return ent.V
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
// endpoint's pool. Foreign buffers are dropped by the pool's capacity check.
func (e *UDPEndpoint) Recycle(p []byte) { e.pool.Put(p) }

// RecvPoolStats implements Datagram: the receive pool's cumulative
// hit/miss counters.
func (e *UDPEndpoint) RecvPoolStats() (hits, misses int64) { return e.pool.Stats() }

// LocalAddr implements Datagram.
func (e *UDPEndpoint) LocalAddr() Addr {
	a := e.conn.LocalAddr().(*net.UDPAddr)
	return Addr{Node: a.IP.String(), Port: uint16(a.Port)}
}

// MaxDatagram implements Datagram.
func (e *UDPEndpoint) MaxDatagram() int { return MaxDatagramSize }

// PathMTU implements Datagram.
func (e *UDPEndpoint) PathMTU() int { return e.mtu }

// Close implements Datagram.
func (e *UDPEndpoint) Close() error {
	err := e.conn.Close()
	if e.kern != nil {
		e.kern.close(e.pool)
	}
	return err
}
