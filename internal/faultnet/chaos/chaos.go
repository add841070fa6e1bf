// Package chaos is the fault-injection soak harness: it drives RD (rudp)
// and UD (verbs-layer) traffic through faultnet-wrapped transports under
// scripted fault schedules and checks the stack's end-to-end invariants —
// the properties the paper's datagram-iWARP design promises to preserve
// over an unreliable wire:
//
//   - RD delivery is exactly-once and in-order per peer; a message either
//     arrives once or its loss surfaces as ErrPeerDead — never silently.
//   - Write-Record placement matches a sender-side shadow copy
//     byte-for-byte: a byte is either untouched or correct, regardless of
//     loss, reordering, duplication, or corruption (the CRC must eat it).
//   - Completion-queue conservation: every posted work request completes
//     exactly once (success, timeout, or close-flush) — no completion is
//     lost and none is duplicated.
//   - Buffer pools balance at quiesce: every pooled buffer handed out came
//     back (gets == puts), so no fault path leaks or double-frees.
//
// Schedules are seeded: the same seed replays the same faultnet decision
// sequence (see faultnet.Log). Full-stack runs interleave decisions by
// goroutine timing, so across runs the comparable artifact is the verdict,
// and a failure report carries the seed plus the decision-log tail for
// replay under `go test -run Chaos -faultnet.seed=N`.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/memreg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Verdict is the outcome of one schedule: empty Failures means every
// invariant held. Fingerprint and Tail identify the fault decision
// sequence for seed replay.
type Verdict struct {
	Name        string
	Seed        int64
	Failures    []string
	Sent        int
	Delivered   int
	DeadErrors  int // ErrPeerDead observations the schedule absorbed
	Fingerprint uint64
	Tail        []string
	FaultLog    *faultnet.Log // full decision log for the run
	Indices     []int         // RD only: message indices in delivery order

	// RD only: the endpoints' reliability counters at quiesce (sender a,
	// receiver b — the final incarnation after a scripted crash). Loss-
	// recovery and congestion-control invariants key off these.
	SenderStats   rudp.Snapshot
	ReceiverStats rudp.Snapshot
}

// Passed reports whether every invariant held.
func (v *Verdict) Passed() bool { return len(v.Failures) == 0 }

func (v *Verdict) failf(format string, args ...any) {
	v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
}

// Report formats the verdict for humans; failing verdicts include the seed
// and the fault-log tail so the run can be replayed.
func (v *Verdict) Report() string {
	var b bytes.Buffer
	status := "PASS"
	if !v.Passed() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s %s seed=%d sent=%d delivered=%d dead=%d log=%016x\n",
		status, v.Name, v.Seed, v.Sent, v.Delivered, v.DeadErrors, v.Fingerprint)
	for _, f := range v.Failures {
		fmt.Fprintf(&b, "  FAIL: %s\n", f)
	}
	if !v.Passed() {
		fmt.Fprintf(&b, "  replay: go test ./internal/faultnet/chaos -run Chaos -faultnet.seed=%d\n", v.Seed)
		for _, line := range v.Tail {
			fmt.Fprintf(&b, "  log: %s\n", line)
		}
	}
	return b.String()
}

// payloadFor builds message i's deterministic RD payload: index header
// plus a per-message fill byte the receiver verifies.
func payloadFor(i, size int) []byte {
	if size < 5 {
		size = 5
	}
	p := make([]byte, 0, size)
	p = nio.PutU32(p, uint32(i))
	fill := byte(i*31 + 7)
	for len(p) < size {
		p = append(p, fill)
	}
	return p
}

// RDSchedule scripts one RD (rudp) chaos run. Steady-state faults come
// from the two faultnet configs (a's outbound and b's outbound); the
// *AtMsg fields trigger scripted events when the sender reaches that
// message index, each reverting after its duration.
type RDSchedule struct {
	Name       string
	Seed       int64
	Messages   int
	PayloadLen int

	FaultAB faultnet.Config // applied to a's outbound packets (DATA path)
	FaultBA faultnet.Config // applied to b's outbound packets (ACK path)

	PartitionAtMsg int // one-way partition a→b before sending this index
	PartitionDur   time.Duration
	AckHoleAtMsg   int // swallow b's ACKs starting at this index
	AckHoleDur     time.Duration
	MTUShrinkAtMsg int // shrink a's path MTU at this index
	MTUShrinkTo    int
	MTUShrinkDur   time.Duration
	CrashAtMsg     int // crash and restart the receiver before this index

	CheckWire bool // assert simnet packet-pool balance at quiesce (clean-ending schedules only)

	// RequireNoRexmit asserts the sender retransmitted nothing — the
	// loss-free-reorder invariant: SACK already tells the sender every
	// displaced packet arrived, and fewer than dupAckThresh sequence numbers
	// are ever SACKed above a hole under a reorder span of 2, so any
	// retransmission (RTO or fast) on a loss-free schedule is spurious. Only meaningful when
	// neither direction drops packets.
	RequireNoRexmit bool
	// RequireMarks asserts the ECN signal chain ran end to end: the
	// receiver observed congestion marks and the sender answered echoes
	// with multiplicative decreases. Use with a MarkRate > 0 schedule and
	// no scripted crash (stats come from the final incarnation).
	RequireMarks bool
}

// classifyRDPacket tags rudp ACKs for faultnet's ACK blackhole.
func classifyRDPacket(p []byte) faultnet.Class {
	if rudp.IsAckPacket(p) {
		return faultnet.ClassAck
	}
	return faultnet.ClassData
}

// RunRD executes one RD schedule and checks the RD invariants.
func RunRD(s RDSchedule) *Verdict {
	v := &Verdict{Name: s.Name, Seed: s.Seed}
	wireGets0, wirePuts0 := simnet.PktBufBalance()
	wireHeld0 := wireGets0 - wirePuts0

	net := simnet.New(simnet.Config{}) // faults come from faultnet, not the substrate
	log := faultnet.NewLog(0)
	defer func() {
		v.Fingerprint = log.Fingerprint()
		v.FaultLog = log
		if !v.Passed() {
			v.Tail = log.Tail(20)
		}
	}()

	wrap := func(node string, port uint16, cfg faultnet.Config, seed int64) (*faultnet.Endpoint, *rudp.Endpoint, error) {
		ep, err := net.OpenDatagram(node, port)
		if err != nil {
			return nil, nil, err
		}
		cfg.Seed = seed
		cfg.Log = log
		cfg.Classify = classifyRDPacket
		cfg.Marker = rudp.MarkCongestion
		fe := faultnet.Wrap(ep, cfg)
		return fe, rudp.New(fe), nil
	}
	fa, a, err := wrap("a", 1, s.FaultAB, s.Seed)
	if err != nil {
		v.failf("open a: %v", err)
		return v
	}
	fb, b, err := wrap("b", 2, s.FaultBA, s.Seed+1)
	if err != nil {
		v.failf("open b: %v", err)
		return v
	}
	bAddr := b.LocalAddr()

	// Receiver: collect (index, ok) deliveries, surviving one crash/restart.
	type rxState struct {
		mu        sync.Mutex
		ep        *rudp.Endpoint
		fe        *faultnet.Endpoint
		restarted chan struct{}
	}
	rx := &rxState{ep: b, fe: fb, restarted: make(chan struct{})}
	var (
		rxMu      sync.Mutex
		delivered []int
		seen      = make(map[int]bool)
		rxFails   []string
	)
	stopRecv := make(chan struct{})
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for {
			rx.mu.Lock()
			ep := rx.ep
			restarted := rx.restarted
			rx.mu.Unlock()
			p, _, err := ep.Recv(100 * time.Millisecond)
			switch {
			case err == nil:
				idx := int(nio.U32(p))
				ok := len(p) >= 5 && p[4] == byte(idx*31+7)
				ep.Recycle(p) // the payload is the wire's own buffer: hand it back or the pool balance below drifts
				rxMu.Lock()
				if !ok {
					rxFails = append(rxFails, fmt.Sprintf("message %d delivered with corrupt payload", idx))
				} else if seen[idx] {
					rxFails = append(rxFails, fmt.Sprintf("message %d delivered twice", idx))
				} else {
					seen[idx] = true
					delivered = append(delivered, idx)
				}
				rxMu.Unlock()
			case errors.Is(err, transport.ErrTimeout):
				select {
				case <-stopRecv:
					return
				default:
				}
			case errors.Is(err, transport.ErrClosed):
				// Either the scripted crash or the end of the run.
				select {
				case <-restarted:
					continue
				case <-stopRecv:
					return
				}
			default:
				rxMu.Lock()
				rxFails = append(rxFails, fmt.Sprintf("receiver error: %v", err))
				rxMu.Unlock()
				return
			}
		}
	}()

	// Sender: run the scripted schedule. lastDead tracks the most recent
	// message index at which the conversation died: everything at or after
	// it rides the fresh post-eviction conversation and MUST be delivered;
	// earlier indices may have died with the old conversation (unacked
	// window, or acked into a delivery queue the crash discarded).
	lastDead := 0
	sendOne := func(i int) error {
		err := a.SendTo(payloadFor(i, s.PayloadLen), bAddr)
		if errors.Is(err, rudp.ErrPeerDead) {
			// The conversation died (scripted partition/crash). The error
			// evicted the peer; retry once on the fresh conversation.
			v.DeadErrors++
			lastDead = i
			err = a.SendTo(payloadFor(i, s.PayloadLen), bAddr)
		}
		return err
	}
	for i := 0; i < s.Messages; i++ {
		if s.PartitionAtMsg > 0 && i == s.PartitionAtMsg {
			fa.PartitionTo(bAddr)
			time.AfterFunc(s.PartitionDur, func() { fa.Heal(bAddr) })
		}
		if s.AckHoleAtMsg > 0 && i == s.AckHoleAtMsg {
			fb.SetAckBlackhole(true)
			fbNow := fb
			time.AfterFunc(s.AckHoleDur, func() { fbNow.SetAckBlackhole(false) })
		}
		if s.MTUShrinkAtMsg > 0 && i == s.MTUShrinkAtMsg {
			fa.SetMTU(s.MTUShrinkTo)
			time.AfterFunc(s.MTUShrinkDur, func() { fa.SetMTU(0) })
		}
		if s.CrashAtMsg > 0 && i == s.CrashAtMsg {
			rx.mu.Lock()
			rx.ep.Close() // closes the wrapped faultnet+simnet endpoints too
			ep2, err := net.OpenDatagram("b", 2)
			if err != nil {
				rx.mu.Unlock()
				v.failf("restart receiver: %v", err)
				break
			}
			cfg := s.FaultBA
			cfg.Seed = s.Seed + 2
			cfg.Log = log
			cfg.Classify = classifyRDPacket
			cfg.Marker = rudp.MarkCongestion
			rx.fe = faultnet.Wrap(ep2, cfg)
			rx.ep = rudp.New(rx.fe)
			close(rx.restarted)
			rx.restarted = make(chan struct{})
			rx.mu.Unlock()
		}
		if err := sendOne(i); err != nil {
			v.failf("SendTo(%d): %v", i, err)
			break
		}
		v.Sent++
	}

	// Quiesce: release reorder holds first — a held tail packet has no
	// subsequent sends to ride out its delay, so without this every
	// reordering schedule ends in a gratuitous RTO retransmit of the tail —
	// then flush (absorbing at most one death per conversation), heal
	// residual faults, and let the receiver drain.
	fa.ReleaseHeld()
	rx.mu.Lock()
	rx.fe.ReleaseHeld()
	rx.mu.Unlock()
	flushErr := a.Flush(10 * time.Second)
	flushDead := errors.Is(flushErr, rudp.ErrPeerDead)
	if flushDead {
		v.DeadErrors++
		flushErr = a.Flush(5 * time.Second)
	}
	if flushErr != nil && !errors.Is(flushErr, transport.ErrClosed) {
		v.failf("Flush: %v (stuck work requests)", flushErr)
	}
	fa.HealAll()
	fa.ReleaseHeld()
	rx.mu.Lock()
	rx.fe.ReleaseHeld()
	rx.mu.Unlock()
	// Drain until the receiver has been silent for a few polls.
	for settle := 0; settle < 5; settle++ {
		rxMu.Lock()
		n := len(delivered)
		rxMu.Unlock()
		if n >= v.Sent {
			break
		}
		time.Sleep(100 * time.Millisecond)
		rxMu.Lock()
		if len(delivered) > n {
			settle = -1 // progress: keep draining
		}
		rxMu.Unlock()
	}
	close(stopRecv)

	// Invariant: simnet packet-pool balance. Checked before Close, while
	// the endpoints' receive loops still consume (and recycle) anything in
	// flight — packets queued at an endpoint when it closes are stranded
	// by design, so clean-ending schedules must reach balance here.
	if s.CheckWire {
		deadline := time.Now().Add(2 * time.Second)
		for {
			gets, puts := simnet.PktBufBalance()
			if gets-puts == wireHeld0 {
				break
			}
			if time.Now().After(deadline) {
				v.failf("simnet packet pool drifted: %d buffers outstanding at quiesce", gets-puts-wireHeld0)
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	a.Close()
	rx.mu.Lock()
	bEnd := rx.ep
	rx.ep.Close()
	rx.mu.Unlock()
	<-recvDone
	v.SenderStats = a.Snapshot()
	v.ReceiverStats = bEnd.Snapshot()

	// Invariant: exactly-once, in-order, and no silent loss.
	rxMu.Lock()
	v.Failures = append(v.Failures, rxFails...)
	v.Delivered = len(delivered)
	v.Indices = delivered
	for i := 1; i < len(delivered); i++ {
		if delivered[i] <= delivered[i-1] {
			v.failf("delivery order broke: index %d after %d", delivered[i], delivered[i-1])
			break
		}
	}
	// No silent loss: every message sent on the final (post-eviction)
	// conversation that Flush acknowledged must have reached the
	// application. If Flush itself died, the final window is unattributable
	// and completeness cannot be pinned to an index.
	firstRequired := lastDead
	if flushDead || flushErr != nil {
		firstRequired = v.Sent
	}
	for i := firstRequired; i < v.Sent; i++ {
		if !seen[i] {
			v.failf("silent loss: message %d was sent after the last ErrPeerDead (index %d) and Flush succeeded, yet it never arrived",
				i, lastDead)
			break
		}
	}
	rxMu.Unlock()

	// Invariant: pool balance at quiesce.
	if out := a.PoolOutstanding(); out != 0 {
		v.failf("sender wire-buffer pool leaked %d buffers", out)
	}
	if out := bEnd.PoolOutstanding(); out != 0 {
		v.failf("receiver wire-buffer pool leaked %d buffers", out)
	}

	// Invariant: loss-free schedules must not retransmit. Reorder and
	// duplication give the sender nothing to resend — SACK reports every
	// displaced packet, and the count of SACKed seqs above a hole stays below
	// the fast-retransmit threshold at reorder span ≤ 2.
	if s.RequireNoRexmit {
		if v.SenderStats.Retransmits != 0 {
			v.failf("loss-free schedule retransmitted %d packets (%d fast, %d RTO expiries) — spurious recovery",
				v.SenderStats.Retransmits, v.SenderStats.FastRetransmits, v.SenderStats.RTOExpirations)
		}
		if s.FaultAB.DupRate == 0 && s.FaultBA.DupRate == 0 && v.ReceiverStats.SpuriousRexmits != 0 {
			// With no retransmissions and no wire duplication, nothing can
			// legitimately arrive twice.
			v.failf("receiver saw %d spurious duplicate DATA on a dup-free schedule", v.ReceiverStats.SpuriousRexmits)
		}
	}
	// Invariant: the ECN chain ran end to end — marks observed at the
	// receiver, echoes answered with multiplicative decrease at the sender.
	// A broken CRC re-stamp in the marker would instead surface as CRC
	// drops and retransmissions of every marked packet.
	if s.RequireMarks {
		if v.ReceiverStats.ECNMarks == 0 {
			v.failf("marking schedule delivered no congestion marks to the receiver")
		}
		if v.SenderStats.MDEvents == 0 {
			v.failf("receiver observed %d marks but the sender never decreased cwnd", v.ReceiverStats.ECNMarks)
		}
	}
	return v
}

// UDSchedule scripts one UD (verbs-layer) chaos run: untagged sends plus
// Write-Record messages from a to b with faults on the a→b direction.
type UDSchedule struct {
	Name     string
	Seed     int64
	Sends    int // untagged single-segment sends
	Writes   int // Write-Record messages at non-overlapping offsets
	WriteLen int // bytes per Write-Record message (may span segments)
	Fault    faultnet.Config

	// PartitionAtWrite > 0 partitions a→b one-way before posting that
	// write index, for the rest of the run: the tail writes vanish on the
	// wire (drops counted as OpDropPartition), and conservation must hold
	// anyway — no posted WR may wedge on either side.
	PartitionAtWrite int
}

// RunUD executes one UD schedule and checks completion-queue conservation
// and Write-Record shadow-copy placement.
func RunUD(s UDSchedule) *Verdict {
	v := &Verdict{Name: s.Name, Seed: s.Seed}
	log := faultnet.NewLog(0)
	defer func() {
		v.Fingerprint = log.Fingerprint()
		v.FaultLog = log
		if !v.Passed() {
			v.Tail = log.Tail(20)
		}
	}()

	net := simnet.New(simnet.Config{})
	epA, err := net.OpenDatagram("a", 1)
	if err != nil {
		v.failf("open a: %v", err)
		return v
	}
	cfg := s.Fault
	cfg.Seed = s.Seed
	cfg.Log = log
	fa := faultnet.Wrap(epA, cfg)
	epB, err := net.OpenDatagram("b", 2)
	if err != nil {
		v.failf("open b: %v", err)
		return v
	}

	type node struct {
		pd  *memreg.PD
		tbl *memreg.Table
		scq *iwarp.CQ
		rcq *iwarp.CQ
		qp  *iwarp.UDQP
	}
	open := func(ep transport.Datagram) (*node, error) {
		n := &node{pd: memreg.NewPD(), tbl: memreg.NewTable(), scq: iwarp.NewCQ(0), rcq: iwarp.NewCQ(0)}
		qp, err := iwarp.OpenUD(ep, n.pd, n.tbl, n.scq, n.rcq, iwarp.UDConfig{
			RecvDepth:         s.Sends + 8,
			ReassemblyTimeout: 300 * time.Millisecond,
		})
		n.qp = qp
		return n, err
	}
	na, err := open(fa)
	if err != nil {
		v.failf("open UD a: %v", err)
		return v
	}
	nb, err := open(epB)
	if err != nil {
		v.failf("open UD b: %v", err)
		na.qp.Close()
		return v
	}

	// Target region + sender-side shadow copy.
	regionLen := s.Writes*s.WriteLen + 64
	region, err := nb.tbl.Register(nb.pd, make([]byte, regionLen), memreg.RemoteWrite)
	if err != nil {
		v.failf("register region: %v", err)
		return v
	}
	shadow := make([]byte, regionLen)

	// Post all receives up front; every one of these WRIDs must complete
	// exactly once (success now, or flushed at close).
	const recvBase, sendBase, writeBase = 1, 1000, 2000
	for i := 0; i < s.Sends; i++ {
		if err := nb.qp.PostRecv(uint64(recvBase+i), make([]byte, 512)); err != nil {
			v.failf("PostRecv(%d): %v", i, err)
			return v
		}
	}

	for i := 0; i < s.Sends; i++ {
		if err := na.qp.PostSend(uint64(sendBase+i), nb.qp.LocalAddr(), nio.VecOf(payloadFor(i, 128))); err != nil {
			v.failf("PostSend(%d): %v", i, err)
		}
	}
	for j := 0; j < s.Writes; j++ {
		if s.PartitionAtWrite > 0 && j == s.PartitionAtWrite {
			fa.PartitionTo(nb.qp.LocalAddr())
		}
		off := j * s.WriteLen
		payload := payloadFor(j, s.WriteLen)
		if s.PartitionAtWrite == 0 || j < s.PartitionAtWrite {
			// Partitioned writes never arrive, so they must not enter the
			// shadow: the whole-region check treats their bytes as
			// untouchable.
			copy(shadow[off:], payload)
		}
		if err := na.qp.PostWriteRecord(uint64(writeBase+j), nb.qp.LocalAddr(),
			region.STag(), uint64(off), nio.VecOf(payload)); err != nil {
			v.failf("PostWriteRecord(%d): %v", j, err)
		}
	}
	v.Sent = s.Sends + s.Writes

	// Source-side CQ conservation: every posted WR completes exactly once.
	srcSeen := make(map[uint64]int)
	for polled := 0; polled < v.Sent; polled++ {
		e, err := na.scq.Poll(2 * time.Second)
		if err != nil {
			v.failf("source CQ starved: %d of %d completions, last err %v", polled, v.Sent, err)
			break
		}
		srcSeen[e.WRID]++
	}
	for id, n := range srcSeen {
		if n != 1 {
			v.failf("source WR %d completed %d times", id, n)
		}
	}

	// Target side: drain completions until the CQ goes quiet past the
	// reassembly timeout, then close and collect the flush.
	recvSeen := make(map[uint64]int)
	recvOK, wrOK := 0, 0
	var placed []memreg.Interval
	drain := func(timeout time.Duration) {
		for {
			e, err := nb.rcq.Poll(timeout)
			if err != nil {
				return
			}
			switch e.Type {
			case iwarp.WTRecv:
				recvSeen[e.WRID]++
				if e.Status == iwarp.StatusSuccess {
					recvOK++
				}
			case iwarp.WTWriteRecordRecv:
				// Record now, compare after close: reading the region while
				// other in-flight messages are still being placed is a race
				// (RDMA memory is not readable mid-write).
				wrOK++
				placed = append(placed, e.Validity.Intervals()...)
			case iwarp.WTError:
				// Advisory (CRC fail, bad opcode): the QP stays up; nothing
				// is consumed. Counted implicitly by the fault log.
			}
		}
	}
	drain(700 * time.Millisecond)
	nb.qp.Close()
	drain(50 * time.Millisecond) // close-flushed receives
	na.qp.Close()

	v.Delivered = recvOK + wrOK
	for i := 0; i < s.Sends; i++ {
		id := uint64(recvBase + i)
		if n := recvSeen[id]; n != 1 {
			v.failf("recv WR %d completed %d times, want exactly once (success, timeout, or flush)", id, n)
		}
	}
	for id, n := range recvSeen {
		if id < recvBase || id >= recvBase+uint64(s.Sends) {
			v.failf("completion for WR %d that was never posted (%d times)", id, n)
		}
	}

	// Both QPs are closed: placement has quiesced and the region is safe
	// to read. Every completed validity interval must match the shadow
	// byte-for-byte.
	for _, iv := range placed {
		if !bytes.Equal(region.Bytes()[iv.Off:iv.End()], shadow[iv.Off:iv.End()]) {
			v.failf("Write-Record placement diverges from shadow in [%d,+%d)", iv.Off, iv.Len)
		}
	}

	// Whole-region shadow check: every byte is either untouched (zero and
	// zero in shadow's untouched areas) or exactly the shadow byte. A
	// corrupted segment must never place — DDP's CRC has to eat it.
	for i, got := range region.Bytes() {
		if got != 0 && got != shadow[i] {
			v.failf("region byte %d = %#x, shadow %#x — corrupt or misplaced data reached memory", i, got, shadow[i])
			break
		}
	}
	return v
}

// Suite returns the standard schedule table rooted at a base seed — the
// same fault mixes the chaos tests pin, re-rooted so a soak run (cmd/iwarpd
// -chaos) can sweep fresh seeds every round while staying replayable.
func Suite(seed int64) ([]RDSchedule, []UDSchedule) {
	ge := &GESoak
	rds := []RDSchedule{
		{Name: "rd-burst-loss", Seed: seed, Messages: 300, PayloadLen: 512,
			FaultAB: faultnet.Config{GE: ge}, FaultBA: faultnet.Config{GE: ge}, CheckWire: true},
		{Name: "rd-reorder-dup-corrupt", Seed: seed + 100, Messages: 300, PayloadLen: 512,
			FaultAB:   faultnet.Config{ReorderRate: 0.2, ReorderSpan: 4, DupRate: 0.15, CorruptRate: 0.05},
			FaultBA:   faultnet.Config{ReorderRate: 0.1, DupRate: 0.1, CorruptRate: 0.05},
			CheckWire: true},
		{Name: "rd-ack-blackhole", Seed: seed + 200, Messages: 200, PayloadLen: 256,
			AckHoleAtMsg: 50, AckHoleDur: 150 * time.Millisecond, CheckWire: true},
		{Name: "rd-partition-heal", Seed: seed + 300, Messages: 200, PayloadLen: 256,
			PartitionAtMsg: 100, PartitionDur: 300 * time.Millisecond, CheckWire: true},
		{Name: "rd-mtu-shrink", Seed: seed + 400, Messages: 200, PayloadLen: 1200,
			MTUShrinkAtMsg: 80, MTUShrinkTo: 576, MTUShrinkDur: 300 * time.Millisecond, CheckWire: true},
		{Name: "rd-crash-restart", Seed: seed + 500, Messages: 250, PayloadLen: 256,
			FaultAB:    faultnet.Config{GE: &faultnet.GEParams{PGoodToBad: 0.02, PBadToGood: 0.5, LossGood: 0.01, LossBad: 0.3}},
			CrashAtMsg: 120},
		{Name: "rd-kitchen-sink", Seed: seed + 600, Messages: 400, PayloadLen: 700,
			FaultAB:        faultnet.Config{GE: ge, ReorderRate: 0.1, ReorderSpan: 3, DupRate: 0.1, CorruptRate: 0.03},
			FaultBA:        faultnet.Config{GE: ge, DupRate: 0.1, CorruptRate: 0.03},
			PartitionAtMsg: 150, PartitionDur: 250 * time.Millisecond,
			AckHoleAtMsg: 300, AckHoleDur: 100 * time.Millisecond},
		// Congestion schedules (DESIGN.md §4.13). rd-ecn-mark proves the
		// mark→echo→decrease chain on a clean wire (marks must not cost
		// deliveries); rd-congestion-burst layers marks over burst loss so
		// ECN decrease, fast retransmit, and RTO collapse all fire in one
		// run; rd-reorder-no-loss pins the no-spurious-recovery invariant.
		{Name: "rd-ecn-mark", Seed: seed + 1100, Messages: 300, PayloadLen: 512,
			FaultAB: faultnet.Config{MarkRate: 0.3}, RequireMarks: true, CheckWire: true},
		{Name: "rd-congestion-burst", Seed: seed + 1200, Messages: 300, PayloadLen: 512,
			FaultAB: faultnet.Config{GE: ge, MarkRate: 0.2}, CheckWire: true},
		{Name: "rd-reorder-no-loss", Seed: seed + 1300, Messages: 300, PayloadLen: 512,
			FaultAB:         faultnet.Config{ReorderRate: 0.25, ReorderSpan: 2, DupRate: 0.1},
			RequireNoRexmit: true, CheckWire: true},
	}
	uds := []UDSchedule{
		{Name: "ud-clean-baseline", Seed: seed + 700, Sends: 40, Writes: 4, WriteLen: 100 << 10},
		{Name: "ud-loss-reorder-dup", Seed: seed + 800, Sends: 60, Writes: 6, WriteLen: 150 << 10,
			Fault: faultnet.Config{GE: ge, ReorderRate: 0.15, ReorderSpan: 3, DupRate: 0.1}},
		{Name: "ud-corruption", Seed: seed + 900, Sends: 60, Writes: 6, WriteLen: 150 << 10,
			Fault: faultnet.Config{CorruptRate: 0.2, DupRate: 0.1}},
		{Name: "ud-partition", Seed: seed + 1000, Sends: 40, Writes: 8, WriteLen: 100 << 10,
			PartitionAtWrite: 4},
	}
	return rds, uds
}

// GESoak is the steady-state Gilbert–Elliott profile the standard suite
// uses: ~1% background loss with dense >60% bursts inside a bad state.
var GESoak = faultnet.GEParams{PGoodToBad: 0.05, PBadToGood: 0.3, LossGood: 0.01, LossBad: 0.65}
