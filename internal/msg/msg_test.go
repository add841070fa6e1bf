package msg

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// collector is a test handler that copies each delivery, releases the
// message immediately (so pools balance), and signals on ch.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	rdv  []bool
	from []transport.Addr
	ch   chan struct{}
}

func newCollector() *collector {
	return &collector{ch: make(chan struct{}, 1024)}
}

func (c *collector) handle(m Message) {
	cp := append([]byte(nil), m.Data...)
	r := m.Rendezvous
	f := m.From
	m.Release()
	c.mu.Lock()
	c.got = append(c.got, cp)
	c.rdv = append(c.rdv, r)
	c.from = append(c.from, f)
	c.mu.Unlock()
	c.ch <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.ch:
		case <-deadline:
			t.Fatalf("delivered %d of %d messages before timeout", i, n)
		}
	}
}

// newPair opens two endpoints on a fresh loopback simnet.
func newPair(t *testing.T, cfgA, cfgB Config) (*Endpoint, *Endpoint) {
	t.Helper()
	net := simnet.New(simnet.Config{})
	epA, err := net.OpenDatagram("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.OpenDatagram("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(epA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(epB, cfgB)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestEagerRoundTrip(t *testing.T) {
	cb := newCollector()
	a, b := newPair(t, Config{Handler: func(Message) {}}, Config{Handler: cb.handle})

	sizes := []int{0, 1, 100, 4096, DefaultEagerThreshold}
	rng := rand.New(rand.NewSource(7))
	var want [][]byte
	for _, n := range sizes {
		p := make([]byte, n)
		rng.Read(p)
		want = append(want, p)
		if err := a.Send(b.LocalAddr(), p); err != nil {
			t.Fatalf("send %d bytes: %v", n, err)
		}
	}
	cb.wait(t, len(sizes), 5*time.Second)

	cb.mu.Lock()
	defer cb.mu.Unlock()
	for i, w := range want {
		if !bytes.Equal(cb.got[i], w) {
			t.Fatalf("message %d: got %d bytes, want %d", i, len(cb.got[i]), len(w))
		}
		if cb.rdv[i] {
			t.Fatalf("message %d (%d bytes) took rendezvous below threshold", i, len(w))
		}
		if cb.from[i] != a.LocalAddr() {
			t.Fatalf("message %d From = %v", i, cb.from[i])
		}
	}
	if s := a.Stats(); s.EagerSent != int64(len(sizes)) || s.RdvSent != 0 {
		t.Fatalf("sender stats %+v", s)
	}
	if s := b.Stats(); s.EagerRecv != int64(len(sizes)) || s.RdvRecv != 0 {
		t.Fatalf("receiver stats %+v", s)
	}
}

func TestRendezvousRoundTrip(t *testing.T) {
	cb := newCollector()
	cfg := Config{EagerThreshold: 1024, Handler: func(Message) {}}
	cfgB := cfg
	cfgB.Handler = cb.handle
	a, b := newPair(t, cfg, cfgB)

	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(9)).Read(payload)
	if err := a.Send(b.LocalAddr(), payload); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, 5*time.Second)

	cb.mu.Lock()
	if !bytes.Equal(cb.got[0], payload) {
		t.Fatal("rendezvous payload corrupted")
	}
	if !cb.rdv[0] {
		t.Fatal("large message did not take rendezvous")
	}
	cb.mu.Unlock()

	if in, out := a.OutstandingRendezvous(); in != 0 || out != 0 {
		t.Fatalf("sender tables not drained: in=%d out=%d", in, out)
	}
	if in, out := b.OutstandingRendezvous(); in != 0 || out != 0 {
		t.Fatalf("receiver tables not drained: in=%d out=%d", in, out)
	}
	if n := b.tbl.Count(); n != 0 {
		t.Fatalf("receiver leaked %d registrations", n)
	}
	if s := a.Stats(); s.RdvSent != 1 || s.RdvBytes != int64(len(payload)) {
		t.Fatalf("sender stats %+v", s)
	}
	if s := b.Stats(); s.RdvRecv != 1 {
		t.Fatalf("receiver stats %+v", s)
	}
}

// peertabMetrics reads the process-wide peer-table occupancy and eviction
// count, summed over every table.
func peertabMetrics() (occupancy, evictions int64) {
	s := telemetry.Default.Snapshot()
	return s.Gauges["diwarp_peertab_occupancy"], s.Counters["diwarp_peertab_evictions_total"]
}

// The peer-table metrics count peers, not transfers: M rendezvous between
// two endpoints add exactly the two peer entries to
// diwarp_peertab_occupancy and evict nothing.
func TestRendezvousLeavesPeerMetrics(t *testing.T) {
	occ0, ev0 := peertabMetrics()

	const m = 16
	cb := newCollector()
	cfg := Config{EagerThreshold: 1024, Handler: func(Message) {}}
	cfgB := cfg
	cfgB.Handler = cb.handle
	a, b := newPair(t, cfg, cfgB)
	payload := make([]byte, 64<<10)
	for i := 0; i < m; i++ {
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	cb.wait(t, m, 5*time.Second)
	if s := b.Stats(); s.RdvRecv != m {
		t.Fatalf("receiver stats %+v, want %d rendezvous", s, m)
	}
	occ, ev := peertabMetrics()
	if occ-occ0 != 2 || ev != ev0 {
		t.Fatalf("after %d rendezvous: occupancy rose by %d, %d evictions; want the 2 peer entries and 0", m, occ-occ0, ev-ev0)
	}
}

// TestRendezvousZeroStaging pins the zero-copy invariant: the bytes the
// handler sees live in the registered sink itself (placement-byte identity
// against the sender's shadow, with Data aliasing the sink buffer), and a
// warmed transfer's allocation bill is a small fraction of the payload —
// a staging copy on either side would show up as a payload-sized alloc.
func TestRendezvousZeroStaging(t *testing.T) {
	const size = 1 << 20
	type seen struct {
		identical bool
		aliased   bool
	}
	shadow := make([]byte, size)
	rand.New(rand.NewSource(11)).Read(shadow)
	ch := make(chan seen, 16)
	cfg := Config{EagerThreshold: 1024, Handler: func(Message) {}}
	cfgB := cfg
	cfgB.Handler = func(m Message) {
		s := seen{
			identical: bytes.Equal(m.Data, shadow),
			aliased:   len(m.Data) > 0 && len(m.buf) > 0 && &m.Data[0] == &m.buf[0],
		}
		m.Release()
		ch <- s
	}
	a, b := newPair(t, cfg, cfgB)

	send := func() seen {
		t.Helper()
		if err := a.Send(b.LocalAddr(), shadow); err != nil {
			t.Fatal(err)
		}
		select {
		case s := <-ch:
			return s
		case <-time.After(5 * time.Second):
			t.Fatal("transfer did not complete")
			return seen{}
		}
	}
	// Warm pools (sink, wire segments, claim tables).
	for i := 0; i < 3; i++ {
		s := send()
		if !s.identical {
			t.Fatal("placed bytes differ from sender shadow")
		}
		if !s.aliased {
			t.Fatal("handler Data does not alias the registered sink: a staging copy happened")
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if s := send(); !s.identical || !s.aliased {
			t.Fatal("zero-copy invariant broke mid-run")
		}
	}
	runtime.ReadMemStats(&after)
	perOp := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	// A staging copy would add >= size bytes per transfer; the steady-state
	// bill (wire buffers, validity clones, CTS plumbing) is far below it.
	bound := int64(size / 4)
	if raceEnabled {
		bound = int64(size * 3 / 4) // race instrumentation inflates TotalAlloc
	}
	if perOp > bound {
		t.Fatalf("rendezvous allocates %d bytes per %d-byte transfer: staging copy suspected", perOp, size)
	}
}

// TestCreditFlowControl pins the eager window: with W=4 and a blocked
// receiver the fifth send stalls, and the piggybacked grant at W/2
// consumed releases it.
func TestCreditFlowControl(t *testing.T) {
	const window = 4
	gate := make(chan struct{})
	delivered := make(chan int, 64)
	var once sync.Once
	cfgB := Config{
		EagerCredits: window,
		Handler: func(m Message) {
			once.Do(func() { <-gate }) // block the first delivery until released
			n := len(m.Data)
			m.Release()
			delivered <- n
		},
	}
	cfgA := Config{
		EagerCredits:  window,
		CreditTimeout: 30 * time.Second, // reclaim must not rescue the stalled send
		Handler:       func(Message) {},
	}
	a, b := newPair(t, cfgA, cfgB)

	payload := make([]byte, 512)
	for i := 0; i < window; i++ {
		if err := a.Send(b.LocalAddr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	fifth := make(chan error, 1)
	go func() { fifth <- a.Send(b.LocalAddr(), payload) }()
	select {
	case err := <-fifth:
		t.Fatalf("send beyond the window completed without credit (err=%v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	if s := a.Stats(); s.CreditStalls == 0 {
		t.Fatal("stalled send not counted")
	}
	close(gate)
	select {
	case err := <-fifth:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("granted credit never released the stalled send")
	}
	for i := 0; i < window+1; i++ {
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatalf("delivered %d of %d after release", i, window+1)
		}
	}
}

// TestDuplicateRTSIdempotent drives the receiver's RTS handler directly:
// a retransmitted RTS must reuse the existing sink and registration, not
// leak a second one.
func TestDuplicateRTSIdempotent(t *testing.T) {
	a, b := newPair(t, Config{Handler: func(Message) {}}, Config{Handler: func(Message) {}})

	h := &Header{Type: TypeRTS, MsgID: 77, Length: 8192}
	p := b.peer(a.LocalAddr())
	b.handleRTS(p, a.LocalAddr(), h)
	b.handleRTS(p, a.LocalAddr(), h)

	if in, _ := b.OutstandingRendezvous(); in != 1 {
		t.Fatalf("inbound entries = %d, want 1", in)
	}
	if n := b.tbl.Count(); n != 1 {
		t.Fatalf("registrations = %d, want 1", n)
	}
	if out := b.sinks.outstanding(); out != 1 {
		t.Fatalf("sinks outstanding = %d, want 1", out)
	}
	b.Close()
	if n := b.tbl.Count(); n != 0 {
		t.Fatalf("Close leaked %d registrations", n)
	}
	if out := b.sinks.outstanding(); out != 0 {
		t.Fatalf("Close leaked %d sinks", out)
	}
}

// TestSweepReclaimsAbandonedRendezvous pins the sweeper: a sink whose
// sender vanished is reaped after the timeout with the registration and
// buffer reclaimed.
func TestSweepReclaimsAbandonedRendezvous(t *testing.T) {
	cfgB := Config{
		RendezvousTimeout: 50 * time.Millisecond,
		SweepInterval:     time.Hour, // sweeps driven manually below
		Handler:           func(Message) {},
	}
	a, b := newPair(t, Config{Handler: func(Message) {}}, cfgB)

	b.handleRTS(b.peer(a.LocalAddr()), a.LocalAddr(), &Header{Type: TypeRTS, MsgID: 5, Length: 4096})
	if in, _ := b.OutstandingRendezvous(); in != 1 {
		t.Fatalf("inbound = %d, want 1", in)
	}
	// First stale sweep arms the entry, second reaps it.
	b.sweepInbound(time.Now().Add(100 * time.Millisecond))
	if in, _ := b.OutstandingRendezvous(); in != 1 {
		t.Fatal("entry reaped after a single stale sweep")
	}
	b.sweepInbound(time.Now().Add(200 * time.Millisecond))
	if in, _ := b.OutstandingRendezvous(); in != 0 {
		t.Fatal("abandoned entry not reaped")
	}
	if n := b.tbl.Count(); n != 0 {
		t.Fatalf("sweep leaked %d registrations", n)
	}
	if out := b.sinks.outstanding(); out != 0 {
		t.Fatalf("sweep leaked %d sinks", out)
	}
	if s := b.Stats(); s.RdvSwept != 1 {
		t.Fatalf("RdvSwept = %d, want 1", s.RdvSwept)
	}
}

// TestMixedTrafficAndCloseBalance runs interleaved eager and rendezvous
// traffic both directions, then closes and asserts every pool balances —
// the same invariant the chaos suite checks under fault schedules.
func TestMixedTrafficAndCloseBalance(t *testing.T) {
	cbA, cbB := newCollector(), newCollector()
	cfg := Config{EagerThreshold: 2048, Handler: cbA.handle}
	cfgB := cfg
	cfgB.Handler = cbB.handle
	a, b := newPair(t, cfg, cfgB)

	const each = 20
	var wg sync.WaitGroup
	send := func(src, dst *Endpoint, seed int64) {
		defer wg.Done()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < each; i++ {
			n := 64
			if i%3 == 0 {
				n = 8192 + rng.Intn(4096) // rendezvous
			}
			if err := src.Send(dst.LocalAddr(), make([]byte, n)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}
	wg.Add(2)
	go send(a, b, 3)
	go send(b, a, 4)
	wg.Wait()
	cbA.wait(t, each, 10*time.Second)
	cbB.wait(t, each, 10*time.Second)

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Endpoint{"a": a, "b": b} {
		if out := e.BufOutstanding(); out != 0 {
			t.Fatalf("%s: %d buffers outstanding after Close", name, out)
		}
		if in, out := e.OutstandingRendezvous(); in != 0 || out != 0 {
			t.Fatalf("%s: rendezvous tables not drained: in=%d out=%d", name, in, out)
		}
	}
}

// TestSendAfterClose pins the error surface.
func TestSendAfterClose(t *testing.T) {
	a, b := newPair(t, Config{Handler: func(Message) {}}, Config{Handler: func(Message) {}})
	addr := b.LocalAddr()
	a.Close()
	if err := a.Send(addr, []byte("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestOpenRejectsNilHandler(t *testing.T) {
	net := simnet.New(simnet.Config{})
	ep, err := net.OpenDatagram("x", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(ep, Config{}); err != ErrNilHandler {
		t.Fatalf("err = %v, want ErrNilHandler", err)
	}
}

func TestSizeCapMatchesVerbsLayer(t *testing.T) {
	// The verbs layer rejects untagged/tagged messages above 1 GiB;
	// rejecting at the msg layer keeps the error synchronous.
	if MaxMessageSize != 1<<30 {
		t.Fatal("MaxMessageSize drifted from the verbs layer's cap")
	}
}

// TestThresholdRouting pins the path decision at the boundary.
func TestThresholdRouting(t *testing.T) {
	cb := newCollector()
	cfg := Config{EagerThreshold: 4096, Handler: func(Message) {}}
	cfgB := cfg
	cfgB.Handler = cb.handle
	a, b := newPair(t, cfg, cfgB)

	if err := a.Send(b.LocalAddr(), make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.LocalAddr(), make([]byte, 4097)); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 2, 5*time.Second)
	s := a.Stats()
	if s.EagerSent != 1 || s.RdvSent != 1 {
		t.Fatalf("stats %+v: threshold routing broken", s)
	}
}

// TestManyPeers exercises the per-peer state tables: one receiver, several
// senders, interleaved paths.
func TestManyPeers(t *testing.T) {
	net := simnet.New(simnet.Config{})
	cb := newCollector()
	epB, err := net.OpenDatagram("hub", 1)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := Open(epB, Config{EagerThreshold: 1024, Handler: cb.handle})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	const peers, msgs = 4, 8
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		ep, err := net.OpenDatagram(fmt.Sprintf("w%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Open(ep, Config{EagerThreshold: 1024, Handler: func(Message) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		wg.Add(1)
		go func(w *Endpoint) {
			defer wg.Done()
			for j := 0; j < msgs; j++ {
				n := 128
				if j%2 == 0 {
					n = 8192
				}
				if err := w.Send(hub.LocalAddr(), make([]byte, n)); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cb.wait(t, peers*msgs, 15*time.Second)
	s := hub.Stats()
	if s.EagerRecv+s.RdvRecv != peers*msgs {
		t.Fatalf("delivered %d+%d, want %d", s.EagerRecv, s.RdvRecv, peers*msgs)
	}
}

// TestReceiveRingRecycledAcrossEndpoints pins the ring hand-over: an endpoint
// opened after one of the same shape closed takes over its receive ring
// instead of allocating and zeroing a new one, stale bytes in the reused ring
// never reach a handler, and a ring is not handed on while a Message the
// application still holds points into it.
func TestReceiveRingRecycledAcrossEndpoints(t *testing.T) {
	ringOf := func(e *Endpoint) *byte { return &e.rxSlab[0] }
	cfg := Config{Handler: func(m Message) { m.Release() }}

	// Drain whatever earlier tests left in the process-wide pool.
	for ringSlabs.Get() != nil {
	}
	a, b := newPair(t, cfg, cfg)
	for i := range a.rxSlab {
		a.rxSlab[i] = 0xEE // what a previous life leaves behind
	}
	ra, rb := ringOf(a), ringOf(b)
	a.Close()
	b.Close()

	cb := newCollector()
	c, d := newPair(t, cfg, Config{Handler: cb.handle})
	if rc, rd := ringOf(c), ringOf(d); (rc != ra && rc != rb) || (rd != ra && rd != rb) || rc == rd {
		// sync.Pool may drop an entry under a collection; only insist when
		// both came back.
		t.Logf("rings not both reused (a collection may have emptied the pool)")
	}
	want := bytes.Repeat([]byte{0x11}, 3000)
	if err := c.Send(d.LocalAddr(), want); err != nil {
		t.Fatal(err)
	}
	cb.wait(t, 1, 5*time.Second)
	if !bytes.Equal(cb.got[0], want) {
		t.Fatal("message through a reused ring does not match what was sent")
	}

	// A held Message pins its endpoint's ring.
	held := make(chan Message, 1)
	e, f := newPair(t, cfg, Config{Handler: func(m Message) { held <- m }})
	if err := e.Send(f.LocalAddr(), want); err != nil {
		t.Fatal(err)
	}
	var m Message
	select {
	case m = <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("message not delivered")
	}
	for ringSlabs.Get() != nil {
	}
	rf := ringOf(f)
	f.Close()
	if p, _ := ringSlabs.Get().(*[]byte); p != nil && &(*p)[0] == rf {
		t.Fatal("a ring was offered for reuse while a delivered Message still pointed into it")
	}
	if !bytes.Equal(m.Data, want) {
		t.Fatal("held message changed under its holder")
	}
	m.Release()
}
