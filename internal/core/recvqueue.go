package iwarp

import (
	"sync"
	"time"
)

// recvQueue is the posted-receive FIFO of a queue pair. The receiver side
// "handles all of the buffer management and determines where incoming data
// will be placed" (§II): each completed untagged message consumes the WR at
// the head. The avail channel is pulsed on every post so an RNR-blocked
// placement engine parks on a notification instead of spin-polling.
//
// The WRs live in a fixed ring of depth slots allocated once, like an RNIC's
// receive queue: a steady post/pop cycle moves the head and count and never
// touches the allocator.
type recvQueue struct {
	mu    sync.Mutex
	ring  []RecvWR // len(ring) is the queue depth
	head  int      // index of the oldest posted WR
	n     int      // posted WRs
	avail chan struct{}
}

func newRecvQueue(depth int) *recvQueue {
	if depth <= 0 {
		depth = 256
	}
	return &recvQueue{ring: make([]RecvWR, depth), avail: make(chan struct{}, 1)}
}

// notify pulses a capacity-1 channel without blocking.
func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// wrap maps i in [0, 2·depth) onto a ring index without a division.
func (q *recvQueue) wrap(i int) int {
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	return i
}

// post appends a receive WR, failing when the queue is at depth.
func (q *recvQueue) post(wr RecvWR) error {
	q.mu.Lock()
	if q.n == len(q.ring) {
		q.mu.Unlock()
		return ErrRecvQueueFull
	}
	q.ring[q.wrap(q.head+q.n)] = wr
	q.n++
	q.mu.Unlock()
	notify(q.avail)
	return nil
}

// pop removes and returns the head WR. When WRs remain after the pop, the
// avail pulse is re-armed: the capacity-1 channel holds one token for any
// number of posts, so the cascade hands the wakeup on to the next wait and
// no posted receive strands a waiter (lost-wakeup avoidance).
func (q *recvQueue) pop() (RecvWR, bool) {
	q.mu.Lock()
	if q.n == 0 {
		q.mu.Unlock()
		return RecvWR{}, false
	}
	wr := q.ring[q.head]
	q.ring[q.head] = RecvWR{} // drop the buffer reference
	q.head = q.wrap(q.head + 1)
	q.n--
	remaining := q.n
	q.mu.Unlock()
	if remaining > 0 {
		notify(q.avail)
	}
	return wr, true
}

// wait pops the head WR, parking until one is posted, stop closes, or
// expire fires (a nil expire never does). It is the receiver-not-ready
// wait of both QP types, woken by post's pulse instead of a spin-sleep.
func (q *recvQueue) wait(stop <-chan struct{}, expire <-chan time.Time) (RecvWR, bool) {
	for {
		if wr, ok := q.pop(); ok {
			return wr, true
		}
		select {
		case <-q.avail:
		case <-expire:
			return RecvWR{}, false
		case <-stop:
			return RecvWR{}, false
		}
	}
}

// drain removes and returns every posted WR, oldest first (for flushing at
// close).
func (q *recvQueue) drain() []RecvWR {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]RecvWR, q.n)
	for i := range out {
		j := q.wrap(q.head + i)
		out[i] = q.ring[j]
		q.ring[j] = RecvWR{}
	}
	q.head, q.n = 0, 0
	return out
}

// len reports the number of posted WRs.
func (q *recvQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}
