package simnet

import (
	"sync"
	"time"

	"repro/internal/transport"
)

// packet is one datagram in flight.
type packet struct {
	payload []byte
	from    transport.Addr
}

// queue is a bounded FIFO of packets supporting blocking put with
// backpressure, timed get, and close. It is the receive queue of a
// simulated socket.
//
// The live packets are q[head:]. The backing array is kept across drains —
// a drained queue resets to q[:0] — and the live packets slide to the front
// only when an append would otherwise grow it, so a steady burst cycle
// reuses one array.
type queue struct {
	mu     sync.Mutex
	q      []packet
	head   int
	cap    int
	closed bool
	avail  chan struct{} // pulsed when data arrives
	space  chan struct{} // pulsed when space frees up
	done   chan struct{} // closed on close()
}

func newQueue(capacity int) *queue {
	return &queue{
		cap:   capacity,
		avail: make(chan struct{}, 1),
		space: make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
}

func pulse(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put appends a burst of packets under one lock acquisition per stretch of
// free space, blocking while the queue is full, and returns the number
// enqueued: a whole segmented message costs one (or a few, under
// backpressure) lock round-trips instead of one per packet. Packets not
// enqueued because the queue closed are recycled here, and the error is
// transport.ErrClosed.
func (q *queue) put(pkts []packet) (int, error) {
	i := 0
	for i < len(pkts) {
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			for _, pk := range pkts[i:] {
				putPktBuf(pk.payload)
			}
			return i, transport.ErrClosed
		}
		for i < len(pkts) && q.size() < q.cap {
			q.push(pkts[i])
			i++
		}
		q.mu.Unlock()
		pulse(q.avail)
		if i == len(pkts) {
			return i, nil
		}
		select {
		case <-q.space:
		case <-q.done:
		}
	}
	return i, nil
}

// noWait as get's timeout polls: whatever is queued now, or ErrTimeout.
const noWait time.Duration = -1

// get pops up to min(len(pkts), len(froms)) packets. It waits for the FIRST
// one — forever with a zero timeout, not at all with noWait — then takes
// whatever else is already queued without waiting; n ≥ 1 on nil error. The
// timeout timer is armed only once the queue is found empty: a queue with
// data ready (the common case under load) never touches the runtime timer
// heap.
func (q *queue) get(pkts [][]byte, froms []transport.Addr, timeout time.Duration) (int, error) {
	n, err := q.pop(pkts, froms)
	if err != transport.ErrTimeout || timeout < 0 {
		return n, err
	}
	var tch <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		tch = timer.C
	}
	return q.popWait(pkts, froms, tch)
}

// getOne is get for a single packet.
func (q *queue) getOne(timeout time.Duration) ([]byte, transport.Addr, error) {
	var p [1][]byte
	var from [1]transport.Addr
	_, err := q.get(p[:], from[:], timeout)
	return p[0], from[0], err
}

// popWait blocks until packets can be popped, the queue closes, or tch
// fires.
func (q *queue) popWait(pkts [][]byte, froms []transport.Addr, tch <-chan time.Time) (int, error) {
	for {
		expired := false
		select {
		case <-q.avail:
		case <-q.done:
		case <-tch:
			expired = true
		}
		// Whatever the wakeup, look: select picks at random among ready
		// cases, so a fired timer does not mean the queue is empty, and a
		// delivered packet must never surface as a timeout — timeout
		// polling is the stack's loss signal.
		n, err := q.pop(pkts, froms)
		if err != transport.ErrTimeout || expired {
			return n, err
		}
	}
}

// pop is the queue's one removal path: under one lock acquisition it moves
// what is queued, up to the slices' width, to the caller, who now owns the
// buffers. An empty queue is ErrTimeout, or ErrClosed once closed (queued
// packets stay readable after close until drained).
func (q *queue) pop(pkts [][]byte, froms []transport.Addr) (int, error) {
	n := min(len(pkts), len(froms))
	if n == 0 {
		return 0, nil
	}
	q.mu.Lock()
	if q.size() == 0 {
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return 0, transport.ErrClosed
		}
		return 0, transport.ErrTimeout
	}
	live := q.q[q.head:]
	n = min(n, len(live))
	for i := range live[:n] {
		pkts[i], froms[i] = live[i].payload, live[i].from
		live[i] = packet{}
	}
	q.head += n
	if q.size() == 0 {
		q.q, q.head = q.q[:0], 0
	} else {
		// More data remains and other readers may be parked on the cap-1
		// avail pulse this wakeup consumed; re-pulse so a concurrent reader
		// is not stranded (lost-wakeup cascade).
		pulse(q.avail)
	}
	q.mu.Unlock()
	pulse(q.space)
	return n, nil
}

// size is the number of queued packets; the caller holds mu.
func (q *queue) size() int { return len(q.q) - q.head }

// push appends pk, first sliding the live packets to the front of the
// backing array if it is full and a drained prefix can be reclaimed; the
// caller holds mu and has checked the bound.
func (q *queue) push(pk packet) {
	if len(q.q) == cap(q.q) && q.head > 0 {
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	q.q = append(q.q, pk)
}

// putDrop appends pkt without blocking, dropping it when the queue is full
// (ack traffic: losing one is harmless, the next ack is cumulative).
func (q *queue) putDrop(pkt packet) {
	q.mu.Lock()
	if q.closed || q.size() >= q.cap {
		q.mu.Unlock()
		putPktBuf(pkt.payload)
		return
	}
	q.push(pkt)
	q.mu.Unlock()
	pulse(q.avail)
}

// close marks the queue closed; queued packets remain readable until
// drained, after which get returns transport.ErrClosed.
func (q *queue) close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.mu.Unlock()
	close(q.done)
}
