package iwarp

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// traceArgs returns the Args of the drained events of type typ naming
// peer, oldest first.
func traceArgs(evs []telemetry.Event, typ telemetry.EventType, peer transport.Addr) []uint32 {
	var out []uint32
	for _, e := range evs {
		if e.Type == typ && e.Peer == peer.String() {
			out = append(out, e.Arg)
		}
	}
	return out
}

// TestSuccessTraceSampledByMSN: success-path events are recorded for one
// message in telemetry.SampleEvery, chosen by MSN, so the sender's EvSend
// and the target's EvRecv name the same messages.
func TestSuccessTraceSampledByMSN(t *testing.T) {
	const msgs = 4 * telemetry.SampleEvery
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{RecvDepth: msgs})
	b := newUDNode(t, net, "b", UDConfig{RecvDepth: msgs})
	bufs := make([]byte, msgs*64)
	for i := 0; i < msgs; i++ {
		if err := b.qp.PostRecv(uint64(i), bufs[i*64:(i+1)*64]); err != nil {
			t.Fatal(err)
		}
	}
	telemetry.DefaultTrace.Drain()
	payload := nio.VecOf(make([]byte, 64))
	for i := 0; i < msgs; i++ {
		if err := a.qp.PostSend(uint64(i), b.qp.LocalAddr(), payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		if e, err := b.rcq.Poll(2 * time.Second); err != nil || !e.Ok() {
			t.Fatalf("receive %d: %+v, %v", i, e, err)
		}
	}
	evs := telemetry.DefaultTrace.Drain()
	sends := traceArgs(evs, telemetry.EvSend, b.qp.LocalAddr())
	recvs := traceArgs(evs, telemetry.EvRecv, a.qp.LocalAddr())
	const want = msgs / telemetry.SampleEvery
	if len(sends) != want || len(recvs) != want {
		t.Fatalf("%d sends left %d EvSend and %d EvRecv, want %d of each", msgs, len(sends), len(recvs), want)
	}
	for i := range sends {
		msn := uint32((i + 1) * telemetry.SampleEvery)
		if sends[i] != msn || recvs[i] != msn {
			t.Fatalf("sampled message %d: EvSend MSN %d, EvRecv MSN %d, want both %d", i, sends[i], recvs[i], msn)
		}
	}
}

// TestDropsNeverSampled: over a lossy wire, every datagram simnet counts
// lost leaves one EvDrop in the trace ring — sampling applies to the
// success path only — while Write-Record placements are sampled.
func TestDropsNeverSampled(t *testing.T) {
	const msgs, size = 8 * telemetry.SampleEvery, 8 << 10
	net := simnet.New(simnet.Config{LossRate: 0.01, Seed: 3})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})
	region, err := b.tbl.Register(b.pd, make([]byte, size), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	telemetry.DefaultTrace.Drain()
	payload := nio.VecOf(make([]byte, size))
	for i := 0; i < msgs; i++ {
		if err := a.qp.PostWriteRecord(uint64(i), b.qp.LocalAddr(), region.STag(), 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	lost := int(net.Counters().LostLoss)
	if lost == 0 {
		t.Fatalf("no loss in %d datagrams at 1%% fragment loss", msgs)
	}
	for i := 0; i < msgs-lost; i++ {
		if e, err := b.rcq.Poll(2 * time.Second); err != nil || e.Type != WTWriteRecordRecv {
			t.Fatalf("placement %d of %d: %+v, %v", i, msgs-lost, e, err)
		}
	}
	evs := telemetry.DefaultTrace.Drain()
	drops := 0
	for _, arg := range traceArgs(evs, telemetry.EvDrop, b.qp.LocalAddr()) {
		if arg == telemetry.DropLoss {
			drops++
		}
	}
	if drops != lost {
		t.Fatalf("simnet lost %d datagrams, trace holds %d wire-loss drops", lost, drops)
	}
	if got := len(traceArgs(evs, telemetry.EvWriteRecord, a.qp.LocalAddr())); got > msgs/telemetry.SampleEvery {
		t.Fatalf("%d EvWriteRecord for %d single-segment messages, want at most %d", got, msgs, msgs/telemetry.SampleEvery)
	}
}

// TestUDSendRecvAllocFree is the allocation gate for the whole UD verbs
// path: a 1 KiB PostSend, its send completion, the target's receive
// completion and the re-post of its buffer, over simnet, allocate nothing
// in steady state.
func TestUDSendRecvAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})
	buf := make([]byte, 1024)
	if err := b.qp.PostRecv(0, buf); err != nil {
		t.Fatal(err)
	}
	payload := nio.VecOf(make([]byte, 1024))
	to := b.qp.LocalAddr()
	// poll spins on a non-blocking Poll: a timed Poll that has to wait
	// arms a timer, which is an allocation of the harness, not the path.
	poll := func(cq *CQ) CQE {
		deadline := time.Now().Add(2 * time.Second)
		for {
			e, err := cq.Poll(0)
			if err == nil {
				return e
			}
			if time.Now().After(deadline) {
				t.Fatal("completion never arrived")
			}
			runtime.Gosched()
		}
	}
	cycle := func() {
		if err := a.qp.PostSend(0, to, payload); err != nil {
			t.Fatal(err)
		}
		poll(a.scq)
		if e := poll(b.rcq); !e.Ok() || e.ByteLen != len(buf) {
			t.Fatalf("receive completion %+v", e)
		}
		if err := b.qp.PostRecv(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools, and intern both peers: the first sampled message
	// renders each address once.
	for i := 0; i < 2*telemetry.SampleEvery; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("UD send+receive allocates %.2f times per message, want 0", allocs)
	}
}

// TestUDWriteRecordAllocBound bounds what a lossless 1 MiB Write-Record
// round trip allocates per message: the post, its source completion, the
// target's validity-map completion and the region's ResetValidity. What
// remains is the tracker, its validity map (handed to the completion, not
// cloned) and the region's own map rebuilt after the reset.
func TestUDWriteRecordAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	const size = 1 << 20
	net := simnet.New(simnet.Config{})
	a := newUDNode(t, net, "a", UDConfig{})
	b := newUDNode(t, net, "b", UDConfig{})
	region, err := b.tbl.Register(b.pd, make([]byte, size), memreg.RemoteWrite)
	if err != nil {
		t.Fatal(err)
	}
	payload := nio.VecOf(make([]byte, size))
	to := b.qp.LocalAddr()
	cycle := func() {
		if err := a.qp.PostWriteRecord(0, to, region.STag(), 0, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := a.scq.Poll(0); err != nil {
			t.Fatal("source completion missing after PostWriteRecord returned")
		}
		// Poll(-1) blocks without arming a timer, which would be an
		// allocation of the harness, not the path.
		if e, _ := b.rcq.Poll(-1); !e.Ok() || e.ByteLen != size || !e.Validity.Complete(size) {
			t.Fatalf("target completion %+v", e)
		}
		region.ResetValidity()
	}
	for i := 0; i < 2*telemetry.SampleEvery; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs > 3 {
		t.Fatalf("1 MiB Write-Record round trip allocates %.2f times per message, want at most 3", allocs)
	}
}
