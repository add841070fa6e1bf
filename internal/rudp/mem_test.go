package rudp

import (
	"net/netip"
	"sync"
	"time"

	"repro/internal/nio"
	"repro/internal/transport"
)

// memNet is an in-memory datagram fabric for tests that need what simnet
// cannot promise: a steady state that allocates nothing (simnet's sync.Pool
// boxes a slice header per recycle), receive pools whose balance belongs to
// one endpoint alone, and control over exactly which datagrams make up one
// receive burst. Every endpoint owns a nio.Pool of memBuf-byte receive
// buffers; a send copies into the destination's pool, and whatever one
// SendBatch or inject call carries is enqueued under one lock, so an idle
// receiver sees it as one burst.
type memNet struct {
	mu  sync.Mutex
	eps map[transport.Addr]*memEP
}

const (
	memBuf   = 2048
	memQueue = 4096
	// noWait as a receive timeout polls: what is queued now, or ErrTimeout.
	noWait time.Duration = -1
)

type memPkt struct {
	p    []byte
	from transport.Addr
}

type memEP struct {
	net  *memNet
	addr transport.Addr
	pool *nio.Pool

	mu     sync.Mutex
	ring   [memQueue]memPkt
	head   int
	n      int
	closed bool
	avail  chan struct{}
	done   chan struct{}
}

func newMemNet() *memNet { return &memNet{eps: make(map[transport.Addr]*memEP)} }

// open attaches a new endpoint at the next address: 10.0.0.1:1,
// 10.0.0.2:1, … in opening order.
func (n *memNet) open() *memEP {
	e := &memEP{
		net:   n,
		pool:  nio.NewPool(memBuf),
		avail: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	n.mu.Lock()
	e.addr = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(len(n.eps) + 1)}), 1)
	n.eps[e.addr] = e
	n.mu.Unlock()
	return e
}

func (n *memNet) lookup(a transport.Addr) *memEP {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eps[a]
}

// inject enqueues pkts at dst as one burst, pkts[i] appearing to come from
// froms[i]: the way to hand an endpoint a burst that mixes sources.
func (n *memNet) inject(dst *memEP, pkts [][]byte, froms []transport.Addr) {
	dst.mu.Lock()
	for i, p := range pkts {
		if dst.closed || dst.n == memQueue {
			break
		}
		buf := append(dst.pool.Get(), p...)
		dst.ring[(dst.head+dst.n)%memQueue] = memPkt{buf, froms[i]}
		dst.n++
	}
	dst.mu.Unlock()
	pulse(dst.avail)
}

func (e *memEP) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	dst := e.net.lookup(to)
	if dst == nil {
		return 0, transport.ErrNoRoute
	}
	dst.mu.Lock()
	for _, p := range pkts {
		if dst.closed || dst.n == memQueue {
			break // a full or closed queue drops, like a socket buffer
		}
		buf := append(dst.pool.Get(), p...)
		dst.ring[(dst.head+dst.n)%memQueue] = memPkt{buf, e.addr}
		dst.n++
	}
	dst.mu.Unlock()
	pulse(dst.avail)
	return len(pkts), nil
}

func (e *memEP) SendTo(p []byte, to transport.Addr) error {
	one := [1][]byte{p}
	_, err := e.SendBatch(one[:], to)
	return err
}

func (e *memEP) RecvBatch(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	max := min(len(pkts), len(froms))
	if max == 0 {
		return 0, nil
	}
	var tch <-chan time.Time
	for {
		e.mu.Lock()
		n := min(max, e.n)
		for i := 0; i < n; i++ {
			m := &e.ring[(e.head+i)%memQueue]
			pkts[i], froms[i] = m.p, m.from
			*m = memPkt{}
		}
		e.head = (e.head + n) % memQueue
		e.n -= n
		closed := e.closed
		e.mu.Unlock()
		switch {
		case n > 0:
			return n, nil
		case closed:
			return 0, transport.ErrClosed
		}
		if timeout == noWait {
			return 0, transport.ErrTimeout
		}
		if timeout > 0 && tch == nil {
			t := time.NewTimer(timeout)
			defer t.Stop()
			tch = t.C
		}
		select {
		case <-e.avail:
		case <-e.done:
		case <-tch:
			return 0, transport.ErrTimeout
		}
	}
}

func (e *memEP) Recv(timeout time.Duration) ([]byte, transport.Addr, error) {
	var p [1][]byte
	var from [1]transport.Addr
	_, err := e.RecvBatch(p[:], from[:], timeout)
	return p[0], from[0], err
}

func (e *memEP) Recycle(p []byte)              { e.pool.Put(p) }
func (e *memEP) RecvPoolStats() (int64, int64) { return e.pool.Stats() }
func (e *memEP) LocalAddr() transport.Addr     { return e.addr }
func (e *memEP) MaxDatagram() int              { return memBuf }
func (e *memEP) PathMTU() int                  { return 1500 }

// Close drops what is still queued back into the pool: nobody will receive
// it, and the pool-balance tests count every buffer.
func (e *memEP) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for ; e.n > 0; e.n-- {
		e.pool.Put(e.ring[e.head].p)
		e.ring[e.head] = memPkt{}
		e.head = (e.head + 1) % memQueue
	}
	e.mu.Unlock()
	close(e.done)
	return nil
}

var _ transport.Datagram = (*memEP)(nil)
