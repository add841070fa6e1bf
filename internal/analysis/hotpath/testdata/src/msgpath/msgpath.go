// Package msgpath mirrors the message layer's eager fast path (internal/msg):
// a pooled gather-vector send and a lock-free credit reservation, both
// annotated. The fixture pins that the idioms the real path relies on —
// sync.Pool checkout of a pointer-shaped vector, atomic CAS credit
// arithmetic, struct-value message construction — stay clean, and that the
// constructs the path must avoid are flagged.
package msgpath

import (
	"sync"
	"sync/atomic"
)

type addr struct {
	hi, lo uint64
	port   uint16
}

type message struct {
	from addr
	data []byte
}

type endpoint struct {
	vecs    sync.Pool
	sent    atomic.Uint32
	limit   atomic.Uint32
	handler func(message)
}

func (e *endpoint) post(v [][]byte) error { return nil }

// goodEagerPost is the real postEager shape: pooled *[2][]byte, no allocs.
//
//diwarp:hotpath
func (e *endpoint) goodEagerPost(hdr, payload []byte) error {
	vb := e.vecs.Get().(*[2][]byte)
	vb[0], vb[1] = hdr, payload
	err := e.post(vb[:])
	vb[0], vb[1] = nil, nil
	e.vecs.Put(vb)
	return err
}

// goodReserve is the real tryReserve shape: pure atomics.
//
//diwarp:hotpath
func (e *endpoint) goodReserve() bool {
	for {
		s := e.sent.Load()
		if int32(s-e.limit.Load()) >= 0 {
			return false
		}
		if e.sent.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// goodDeliver is the real handleEager shape: struct-value message, direct
// handler call.
//
//diwarp:hotpath
func (e *endpoint) goodDeliver(from addr, buf []byte, n int) {
	e.handler(message{from: from, data: buf[:n]})
}

// badEagerPost is the tempting version of the send path: a fresh slice
// literal per send.
//
//diwarp:hotpath
func (e *endpoint) badEagerPost(hdr, payload []byte) error {
	vec := [][]byte{hdr, payload} // want `allocates a slice literal`
	return e.post(vec)
}

var creditMu sync.Mutex

// badReserve guards the ledger with a lock instead of CAS.
//
//diwarp:hotpath
func (e *endpoint) badReserve() bool {
	creditMu.Lock() // want `takes a lock`
	ok := e.sent.Load() < e.limit.Load()
	creditMu.Unlock()
	return ok
}

// badDeliver parks on a channel inside the delivery path.
//
//diwarp:hotpath
func (e *endpoint) badDeliver(ch chan message, m message) {
	ch <- m // want `sends on a channel`
}

// unannotated may do all of it: the analyzer keys strictly on the marker.
func (e *endpoint) unannotated(hdr, payload []byte) error {
	vec := [][]byte{hdr, payload}
	creditMu.Lock()
	creditMu.Unlock()
	return e.post(vec)
}
