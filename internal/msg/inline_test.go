package msg

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// These tests pin how the layer consumes its QP's completions: through one
// handler CQ, on the goroutine that posts each completion, with no polling
// goroutine and no poll timer in between.

// TestEagerRoundTripAllocFree: a warm 4 KiB eager round trip over simnet —
// Send, placement, the receive completion, the handler and Release — makes
// no allocation. A polled CQ would arm a timer whenever its loop found the
// queue empty, several times per message.
func TestEagerRoundTripAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	got := make(chan struct{}, 1)
	src, dst := newPair(t,
		Config{Handler: func(m Message) { m.Release() }},
		Config{Handler: func(m Message) { m.Release(); got <- struct{}{} }})
	to := dst.LocalAddr()
	payload := make([]byte, 4096)
	roundTrip := func() {
		if err := src.Send(to, payload); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 4*DefaultEagerCredits; i++ { // warm pools, peer state and credit grants
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("eager round trip allocates %.2f times per message, want 0", allocs)
	}
}

// TestEagerRoundTripAllocFreeRD is TestEagerRoundTripAllocFree over rudp on
// simnet, the shape of msg_mix_rd's eager messages: a 4 KiB message fills
// less than a quarter of simnet's 64.5 KB receive buffer, so rudp's
// copy-break hands it up in a buffer from its class pool, and ddp built the
// frame it arrived in straight in rudp's frame pool. A warm round trip —
// both, the ACKs and the credit traffic included — allocates nothing.
func TestEagerRoundTripAllocFreeRD(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	got := make(chan struct{}, 1)
	net := simnet.New(simnet.Config{})
	open := func(name string, h func(Message)) *Endpoint {
		ep, err := net.OpenDatagram(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		me, err := Open(rudp.New(ep), Config{Reliable: true, Handler: h})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { me.Close() })
		return me
	}
	src := open("a", func(m Message) { m.Release() })
	dst := open("b", func(m Message) { m.Release(); got <- struct{}{} })
	to := dst.LocalAddr()
	payload := make([]byte, 4096)
	roundTrip := func() {
		if err := src.Send(to, payload); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 4*DefaultEagerCredits; i++ { // warm pools, peer state, cwnd and credit grants
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Fatalf("eager round trip over rudp allocates %.2f times per message, want 0", allocs)
	}
}

// goroutinesCreatedBy returns the stacks of every live goroutine whose
// creator is fn.
func goroutinesCreatedBy(fn string) []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var gs []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by "+fn+" ") {
			gs = append(gs, g)
		}
	}
	return gs
}

// TestOpenStartsOneGoroutine: over a bare datagram endpoint an Endpoint
// runs its rendezvous sweeper and nothing else of its own; the QP under it
// runs its receive goroutine and its sweeper.
func TestOpenStartsOneGoroutine(t *testing.T) {
	const openFn, openUDFn = "repro/internal/msg.Open", "repro/internal/core.OpenUD"
	before, beforeQP := len(goroutinesCreatedBy(openFn)), len(goroutinesCreatedBy(openUDFn))
	ep, err := simnet.New(simnet.Config{}).OpenDatagram("g", 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Open(ep, Config{Handler: func(m Message) { m.Release() }})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// A new goroutine may not have entered its function yet; wait until
	// all three have.
	deadline := time.Now().Add(2 * time.Second)
	for {
		gs, qps := goroutinesCreatedBy(openFn), goroutinesCreatedBy(openUDFn)
		all, allQP := strings.Join(gs, "\n"), strings.Join(qps, "\n")
		started := strings.Contains(all, "(*Endpoint).sweepLoop") &&
			strings.Contains(allQP, "(*UDQP).recvLoop") && strings.Contains(allQP, "(*UDQP).sweepLoop")
		if started || time.Now().After(deadline) {
			if n, nQP := len(gs)-before, len(qps)-beforeQP; n != 1 || nQP != 2 || !started {
				t.Fatalf("Open started %d goroutines of its own (want its sweepLoop only) and %d in its QP (want recvLoop and sweepLoop):\n%s\n%s", n, nQP, all, allQP)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBidirectionalSaturationRD saturates both directions of an RD
// conversation (msg over rudp over simnet) with eager messages and
// rendezvous transfers at once. In the deep case each side grants 16
// concurrent 8 MiB transfers, about 2,000 datagrams, so more than rudp's
// delivery queue holds (1,024) can be in flight towards a receiver. If the
// QP's receive goroutine sent its CTSes and credit refills itself, it could
// wait there for window space that only its own rudp receive goroutine
// opens, while that goroutine waited for it to drain the full delivery
// queue: both ends wedged until rudp declared the peer dead. Every message
// must arrive exactly once and intact, and every pool must balance.
func TestBidirectionalSaturationRD(t *testing.T) {
	for _, c := range []struct {
		name          string
		rdvConc, rdvN int
		rdvSize       int
	}{
		{"shallow", 1, 12, 1 << 20},
		{"deep", DefaultMaxRendezvous, 1, 8 << 20},
	} {
		for _, procs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/GOMAXPROCS=%d", c.name, procs), func(t *testing.T) {
				if c.name == "deep" && raceEnabled {
					t.Skip("256 MiB of payload in flight is too much memory under the race detector")
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				saturateRD(t, c.rdvConc, c.rdvN, c.rdvSize)
			})
		}
	}
}

// satMessage builds message id of n bytes: the id, then a fill byte
// derived from it.
func satMessage(id uint32, n int) []byte { return fillMessage(make([]byte, n), id) }

// fillMessage writes message id into p and returns it.
func fillMessage(p []byte, id uint32) []byte {
	n := len(p)
	binary.BigEndian.PutUint32(p, id)
	fill := byte(id*31 + 7)
	for i := 4; i < n; i++ {
		p[i] = fill
	}
	return p
}

// satReceiver checks each delivery against satMessage and counts it.
type satReceiver struct {
	mu    sync.Mutex
	seen  map[uint32]bool
	fails []string
	all   chan struct{} // closed when want messages have arrived
	want  int
}

func (r *satReceiver) handle(m Message) {
	defer m.Release()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(m.Data) < 4 {
		r.fails = append(r.fails, fmt.Sprintf("runt delivery of %d bytes", len(m.Data)))
		return
	}
	id := binary.BigEndian.Uint32(m.Data)
	fill := byte(id*31 + 7)
	for _, b := range m.Data[4:] {
		if b != fill {
			r.fails = append(r.fails, fmt.Sprintf("message %d corrupt", id))
			return
		}
	}
	if r.seen[id] {
		r.fails = append(r.fails, fmt.Sprintf("message %d delivered twice", id))
		return
	}
	r.seen[id] = true
	if len(r.seen) == r.want {
		close(r.all)
	}
}

// saturateRD runs eager traffic and rdvConc concurrent streams of rdvN
// rendezvous transfers of rdvSize bytes each way between two msg endpoints
// over rudp, then checks delivery and pool balance. Each stream reuses one
// payload buffer: Send keeps nothing once it returns.
func saturateRD(t *testing.T, rdvConc, rdvN, rdvSize int) {
	const (
		eagerN, eagerSize = 1500, 4 << 10
		rdvBase           = 1 << 20 // rendezvous ids, apart from eager ones
	)
	gets0, puts0 := simnet.PktBufBalance()
	net := simnet.New(simnet.Config{})
	open := func(name string, r *satReceiver) (*rudp.Endpoint, *Endpoint) {
		ep, err := net.OpenDatagram(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		re := rudp.New(ep)
		me, err := Open(re, Config{Reliable: true, Handler: r.handle})
		if err != nil {
			t.Fatal(err)
		}
		return re, me
	}
	newRecv := func() *satReceiver {
		return &satReceiver{seen: make(map[uint32]bool), all: make(chan struct{}), want: eagerN + rdvConc*rdvN}
	}
	ra, rb := newRecv(), newRecv()
	_, a := open("a", ra)
	_, b := open("b", rb)

	var wg sync.WaitGroup
	sendEager := func(src *Endpoint, to transport.Addr) {
		defer wg.Done()
		for i := 0; i < eagerN; i++ {
			if err := src.Send(to, satMessage(uint32(i), eagerSize)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}
	sendRdv := func(src *Endpoint, to transport.Addr, stream int) {
		defer wg.Done()
		p := make([]byte, rdvSize)
		for i := 0; i < rdvN; i++ {
			id := uint32(rdvBase + stream*rdvN + i)
			if err := src.Send(to, fillMessage(p, id)); err != nil {
				t.Errorf("send %d: %v", id, err)
				return
			}
		}
	}
	wg.Add(2 + 2*rdvConc)
	go sendEager(a, b.LocalAddr())
	go sendEager(b, a.LocalAddr())
	for s := 0; s < rdvConc; s++ {
		go sendRdv(a, b.LocalAddr(), s)
		go sendRdv(b, a.LocalAddr(), s)
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()
	select {
	case <-sent:
	case <-time.After(30 * time.Second):
		t.Fatal("senders wedged")
	}
	for name, r := range map[string]*satReceiver{"a": ra, "b": rb} {
		select {
		case <-r.all:
		case <-time.After(30 * time.Second):
			r.mu.Lock()
			n := len(r.seen)
			r.mu.Unlock()
			t.Fatalf("%s received %d of %d messages", name, n, r.want)
		}
		r.mu.Lock()
		if len(r.fails) > 0 {
			t.Errorf("%s: %s", name, strings.Join(r.fails, "; "))
		}
		r.mu.Unlock()
	}

	// At quiesce every simnet packet buffer is back in its pool.
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := simnet.PktBufBalance()
		if gets-puts == gets0-puts0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("simnet packet pool drifted: %d buffers outstanding at quiesce", gets-puts-(gets0-puts0))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, e := range map[string]*Endpoint{"a": a, "b": b} {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if out := e.BufOutstanding(); out != 0 {
			t.Errorf("%s: %d buffers outstanding after Close", name, out)
		}
		if in, out := e.OutstandingRendezvous(); in != 0 || out != 0 {
			t.Errorf("%s: rendezvous tables not drained: in=%d out=%d", name, in, out)
		}
	}
}

// gatedDatagram holds every send at a gate until the gate opens, the way a
// full window in the LLP holds a sender.
type gatedDatagram struct {
	transport.Datagram
	gate    chan struct{} // closed to let sends through
	stalled chan struct{} // one token per send that found the gate shut
}

func (g *gatedDatagram) SendBatch(pkts [][]byte, to transport.Addr) (int, error) {
	select {
	case <-g.gate:
	default:
		select {
		case g.stalled <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return g.Datagram.SendBatch(pkts, to)
}

func (g *gatedDatagram) SendTo(p []byte, to transport.Addr) error {
	_, err := g.SendBatch([][]byte{p}, to)
	return err
}

// TestBlockedControlSendDoesNotStallReceive: while the CTS a receiver owes
// cannot leave, the receiver goes on delivering what arrives. Every send
// of endpoint a waits at a shut gate; b opens a rendezvous to a, whose CTS
// then waits at the gate, and sends eager messages within its initial
// credit. They must all reach a's handler before the gate opens; then the
// rendezvous completes.
func TestBlockedControlSendDoesNotStallReceive(t *testing.T) {
	const eagerN = DefaultEagerCredits / 2
	net := simnet.New(simnet.Config{})
	epA, err := net.OpenDatagram("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.OpenDatagram("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedDatagram{Datagram: epA, gate: make(chan struct{}), stalled: make(chan struct{}, 1)}
	var once sync.Once
	openGate := func() { once.Do(func() { close(gated.gate) }) }
	defer openGate() // a failed check must not leave Close behind the gate
	r := &satReceiver{seen: make(map[uint32]bool), all: make(chan struct{}), want: eagerN + 1}
	a, err := Open(gated, Config{Handler: r.handle})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(epB, Config{Handler: func(m Message) { m.Release() }})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { openGate(); a.Close(); b.Close() })

	const rdvID, rdvSize = 1 << 20, 256 << 10
	rdvErr := make(chan error, 1)
	go func() { rdvErr <- b.Send(a.LocalAddr(), satMessage(rdvID, rdvSize)) }()
	select {
	case <-gated.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("a never tried to answer the RTS")
	}
	for i := 0; i < eagerN; i++ {
		if err := b.Send(a.LocalAddr(), satMessage(uint32(i), 1024)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.seen)
		r.mu.Unlock()
		if n == eagerN {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("a delivered %d of %d eager messages while its CTS waited to be sent", n, eagerN)
		}
		time.Sleep(time.Millisecond)
	}

	openGate()
	if err := <-rdvErr; err != nil {
		t.Fatalf("rendezvous after the gate opened: %v", err)
	}
	select {
	case <-r.all:
	case <-time.After(5 * time.Second):
		t.Fatal("rendezvous never delivered")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.fails) > 0 {
		t.Fatal(strings.Join(r.fails, "; "))
	}
}
