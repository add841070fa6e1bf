package iwarp

import (
	"sync/atomic"
	"time"
)

// CQ is a completion queue: a bounded buffer of CQEs shared by any number
// of queue pairs. Poll takes entries with an explicit timeout — the polling
// discipline the paper requires for datagram-iWARP, where a lost datagram
// means the awaited completion never arrives ("it is essential that the
// completion queue be polled with a defined timeout period", §IV.B.1).
type CQ struct {
	ch       chan CQE
	fn       func(CQE)
	overruns atomic.Int64
	closed   atomic.Bool
}

// DefaultCQDepth is the completion queue capacity used when depth 0 is
// requested.
const DefaultCQDepth = 1024

// NewCQ creates a completion queue holding up to depth entries
// (0 selects DefaultCQDepth).
func NewCQ(depth int) *CQ {
	if depth <= 0 {
		depth = DefaultCQDepth
	}
	return &CQ{ch: make(chan CQE, depth)}
}

// NewCQFunc creates a handler CQ for consumers inside the stack: each
// completion is passed to fn on the goroutine that posts it (DESIGN.md
// §4.7), nothing is queued, and Poll reports ErrCQEmpty at once. fn must
// be safe for concurrent calls and must not block for long; it may call
// back into the QP, whose locks are never held while it runs.
func NewCQFunc(fn func(CQE)) *CQ { return &CQ{fn: fn} }

// post adds a completion, or hands it to the handler of a handler CQ. A
// full queue drops the entry and counts an overrun — the hardware-CQ
// overflow behaviour; sizing the CQ to the sum of queue depths avoids it,
// as on a real RNIC. The channel is never closed, so the closed flag needs
// no lock: a post racing Close may still land, which is harmless — queued
// entries stay pollable after Close anyway.
func (cq *CQ) post(e CQE) {
	if cq.closed.Load() {
		return
	}
	if cq.fn != nil {
		cq.fn(e)
		return
	}
	select {
	case cq.ch <- e:
	default:
		cq.overruns.Add(1)
	}
}

// Poll returns the next completion, waiting up to timeout. A zero timeout
// polls without blocking; a negative timeout blocks indefinitely. It
// returns ErrCQEmpty when the deadline passes with no completion, and at
// once on a handler CQ, which never holds one.
func (cq *CQ) Poll(timeout time.Duration) (CQE, error) {
	if cq.fn != nil {
		return CQE{}, ErrCQEmpty
	}
	// Fast path: a queued completion never pays for timer setup. Under
	// load this is the common case and keeps the per-message cost of
	// timeout-based polling near zero.
	select {
	case e := <-cq.ch:
		return e, nil
	default:
	}
	if timeout == 0 {
		return CQE{}, ErrCQEmpty
	}
	if timeout < 0 {
		return <-cq.ch, nil
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	return cq.await(t.C)
}

// await blocks for the next completion until tch fires.
func (cq *CQ) await(tch <-chan time.Time) (CQE, error) {
	select {
	case e := <-cq.ch:
		return e, nil
	case <-tch:
	}
	// One last look: select picks at random among ready cases, so a fired
	// timer does not mean the queue is empty, and a posted completion must
	// never surface as ErrCQEmpty — the paper makes the poll timeout the
	// loss signal.
	select {
	case e := <-cq.ch:
		return e, nil
	default:
		return CQE{}, ErrCQEmpty
	}
}

// Len reports the number of queued completions (always 0 on a handler CQ).
func (cq *CQ) Len() int { return len(cq.ch) }

// Overruns reports how many completions were dropped to a full queue.
func (cq *CQ) Overruns() int64 { return cq.overruns.Load() }

// Close marks the queue closed; queued entries remain pollable. Posting
// after Close is a silent no-op so racing QPs shut down cleanly.
func (cq *CQ) Close() { cq.closed.Store(true) }
