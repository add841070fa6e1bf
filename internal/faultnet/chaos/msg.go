package chaos

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// MsgSchedule scripts one message-layer (internal/msg) chaos run: a sends
// Messages indexed payloads to b over the full stack — msg on a UD QP on
// rudp on faultnet on simnet — mixing eager and rendezvous transfers.
// Steady-state faults come from the two faultnet configs; the *AtMsg
// fields trigger scripted events when the sender reaches that index.
type MsgSchedule struct {
	Name     string
	Seed     int64
	Messages int

	EagerLen int // payload length for eager messages (below threshold)
	RdvLen   int // payload length for rendezvous messages (above threshold)
	RdvEvery int // every RdvEvery-th message is a rendezvous transfer (0 = all eager)

	FaultAB faultnet.Config // applied to a's outbound packets
	FaultBA faultnet.Config // applied to b's outbound packets

	PartitionAtMsg int // one-way partition a→b before sending this index
	PartitionDur   time.Duration
	CrashAtMsg     int // crash and restart the receiver before this index

	CheckWire bool // assert simnet packet-pool balance at quiesce (clean-ending schedules only)
}

// msgChaosThreshold splits the schedule's two payload sizes: EagerLen must
// sit at or below it and RdvLen above it.
const msgChaosThreshold = 4 << 10

func (s MsgSchedule) sizeFor(i int) int {
	if s.RdvEvery > 0 && i%s.RdvEvery == s.RdvEvery-1 {
		return s.RdvLen
	}
	return s.EagerLen
}

// msgChaosConfig is the endpoint configuration every msg chaos run uses:
// reliable LLP semantics (BlockOnRNR) and a short rendezvous timeout plus fast
// sweep so orphaned sinks from abandoned handshakes drain within the
// quiesce window rather than the production default of several seconds.
func msgChaosConfig(handler func(msg.Message)) msg.Config {
	return msg.Config{
		EagerThreshold:    msgChaosThreshold,
		EagerCredits:      32,
		RecvDepth:         128,
		Reliable:          true,
		RendezvousTimeout: 2 * time.Second,
		SweepInterval:     200 * time.Millisecond,
		CreditTimeout:     time.Second,
		Handler:           handler,
	}
}

// RunMsg executes one message-layer schedule and checks the msg
// invariants: exactly-once delivery with intact payloads, monotone eager
// order, no silent loss after the last surfaced send error, empty
// rendezvous tables on both sides at quiesce, and zero buffer-pool drift
// in the msg layer, the rudp wire pool, and (optionally) simnet.
func RunMsg(s MsgSchedule) *Verdict {
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

	// Receiver bookkeeping. The handler is shared by the original and the
	// restarted endpoint, so delivery state survives the scripted crash.
	var (
		rxMu      sync.Mutex
		delivered []int
		seen      = make(map[int]bool)
		rxFails   []string
	)
	handler := func(m msg.Message) {
		data := m.Data
		var fail string
		if len(data) < 5 {
			fail = fmt.Sprintf("runt delivery of %d bytes", len(data))
		} else {
			idx := int(nio.U32(data))
			fill := byte(idx*31 + 7)
			ok := len(data) == s.sizeFor(idx)
			for i := 4; ok && i < len(data); i++ {
				ok = data[i] == fill
			}
			rxMu.Lock()
			switch {
			case !ok:
				fail = fmt.Sprintf("message %d delivered with corrupt payload (%d bytes)", idx, len(data))
			case seen[idx]:
				fail = fmt.Sprintf("message %d delivered twice", idx)
			default:
				seen[idx] = true
				delivered = append(delivered, idx)
			}
			rxMu.Unlock()
		}
		if fail != "" {
			rxMu.Lock()
			rxFails = append(rxFails, fail)
			rxMu.Unlock()
		}
		m.Release()
	}

	open := func(node string, port uint16, cfg faultnet.Config, seed int64, h func(msg.Message)) (*faultnet.Endpoint, *rudp.Endpoint, *msg.Endpoint, error) {
		ep, err := net.OpenDatagram(node, port)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.Seed = seed
		cfg.Log = log
		cfg.Classify = classifyRDPacket
		fe := faultnet.Wrap(ep, cfg)
		re := rudp.New(fe)
		me, err := msg.Open(re, msgChaosConfig(h))
		if err != nil {
			re.Close()
			return nil, nil, nil, err
		}
		return fe, re, me, nil
	}

	fa, ra, a, err := open("a", 1, s.FaultAB, s.Seed, func(m msg.Message) { m.Release() })
	if err != nil {
		v.failf("open a: %v", err)
		return v
	}
	type rxState struct {
		mu sync.Mutex
		fe *faultnet.Endpoint
		re *rudp.Endpoint
		me *msg.Endpoint
	}
	fb, rb, b, err := open("b", 2, s.FaultBA, s.Seed+1, handler)
	if err != nil {
		a.Close()
		v.failf("open b: %v", err)
		return v
	}
	rx := &rxState{fe: fb, re: rb, me: b}
	bAddr := b.LocalAddr()

	// Sender. lastRequired tracks the most recent index at which a send
	// surfaced an error (peer death or an abandoned rendezvous handshake):
	// everything at or after it rides recovered state and MUST be
	// delivered; earlier indices may have died with the old conversation
	// or the crashed receiver. A rendezvous can need two recoveries (the
	// CTS wait times out first, then the fresh RTS surfaces ErrPeerDead
	// and evicts the conversation), so each index gets up to three tries.
	lastRequired := 0
	sendOne := func(i int) error {
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			err = a.Send(bAddr, payloadFor(i, s.sizeFor(i)))
			if err == nil {
				return nil
			}
			if !errors.Is(err, rudp.ErrPeerDead) && !errors.Is(err, msg.ErrRendezvousTimeout) {
				return err
			}
			v.DeadErrors++
			lastRequired = i
		}
		return err
	}
	for i := 0; i < s.Messages; i++ {
		if s.PartitionAtMsg > 0 && i == s.PartitionAtMsg {
			fa.PartitionTo(bAddr)
			time.AfterFunc(s.PartitionDur, func() { fa.Heal(bAddr) })
		}
		if s.CrashAtMsg > 0 && i == s.CrashAtMsg {
			rx.mu.Lock()
			rx.me.Close() // closes the QP, rudp, faultnet, and simnet endpoints
			if out := rx.me.BufOutstanding(); out != 0 {
				v.failf("crashed receiver leaked %d msg buffers", out)
			}
			if out := rx.re.PoolOutstanding(); out != 0 {
				v.failf("crashed receiver leaked %d wire buffers", out)
			}
			fe2, re2, me2, err := open("b", 2, s.FaultBA, s.Seed+2, handler)
			if err != nil {
				rx.mu.Unlock()
				v.failf("restart receiver: %v", err)
				break
			}
			rx.fe, rx.re, rx.me = fe2, re2, me2
			rx.mu.Unlock()
		}
		if err := sendOne(i); err != nil {
			v.failf("Send(%d): %v", i, err)
			break
		}
		v.Sent++
	}

	// Quiesce. Rendezvous sends are synchronous through FIN, so once the
	// loop exits only untagged eager/control frames can still be in rudp
	// flight: Flush pins them (absorbing at most one death), then residual
	// faults heal and the receiver drains.
	flushErr := ra.Flush(10 * time.Second)
	flushDead := errors.Is(flushErr, rudp.ErrPeerDead)
	if flushDead {
		v.DeadErrors++
		flushErr = ra.Flush(5 * time.Second)
	}
	if flushErr != nil && !errors.Is(flushErr, transport.ErrClosed) {
		v.failf("Flush: %v (stuck frames)", flushErr)
	}
	fa.HealAll()
	fa.ReleaseHeld()
	rx.mu.Lock()
	rx.fe.ReleaseHeld()
	rx.mu.Unlock()
	// Drain until the receiver has been silent for a few polls: a flushed
	// frame still has to cross the QP worker and the handler.
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

	// Invariant: rendezvous tables empty on both sides. Orphaned inbound
	// sinks (an RTS whose sender abandoned the handshake) are legitimate
	// mid-run, but the sweeper must reap them within its timeout — an
	// entry that survives quiesce is a table leak.
	rdvDeadline := time.Now().Add(8 * time.Second)
	for {
		ai, ao := a.OutstandingRendezvous()
		rx.mu.Lock()
		bi, bo := rx.me.OutstandingRendezvous()
		rx.mu.Unlock()
		if ai+ao+bi+bo == 0 {
			break
		}
		if time.Now().After(rdvDeadline) {
			v.failf("rendezvous tables not drained at quiesce: a in/out=(%d,%d) b in/out=(%d,%d)", ai, ao, bi, bo)
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Invariant: simnet packet-pool balance (before Close, as in RunRD).
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
	bEnd, rbEnd := rx.me, rx.re
	rx.mu.Unlock()
	bEnd.Close()

	// Invariant: exactly-once with intact payloads, and monotone delivery
	// order for the eager subset. Eager messages ride one in-order LLP
	// conversation through a single receive worker, so their relative
	// order must survive every fault; rendezvous completions ride the
	// placement path and may legitimately interleave out of index order.
	rxMu.Lock()
	v.Failures = append(v.Failures, rxFails...)
	v.Delivered = len(delivered)
	v.Indices = delivered
	prevEager := -1
	for _, idx := range delivered {
		if s.sizeFor(idx) != s.EagerLen {
			continue
		}
		if idx <= prevEager {
			v.failf("eager delivery order broke: index %d after %d", idx, prevEager)
			break
		}
		prevEager = idx
	}
	// No silent loss: every message sent after the last surfaced error,
	// with Flush succeeding, must have reached the handler. If Flush
	// itself died the final window is unattributable.
	firstRequired := lastRequired
	if flushDead || flushErr != nil {
		firstRequired = v.Sent
	}
	for i := firstRequired; i < v.Sent; i++ {
		if !seen[i] {
			v.failf("silent loss: message %d was sent after the last surfaced error (index %d) and Flush succeeded, yet it never arrived",
				i, lastRequired)
			break
		}
	}
	rxMu.Unlock()

	// Invariant: buffer-pool balance at quiesce, at every layer.
	if out := a.BufOutstanding(); out != 0 {
		v.failf("sender msg layer leaked %d buffers", out)
	}
	if out := bEnd.BufOutstanding(); out != 0 {
		v.failf("receiver msg layer leaked %d buffers", out)
	}
	if out := ra.PoolOutstanding(); out != 0 {
		v.failf("sender wire-buffer pool leaked %d buffers", out)
	}
	if out := rbEnd.PoolOutstanding(); out != 0 {
		v.failf("receiver wire-buffer pool leaked %d buffers", out)
	}
	return v
}

// MsgSuite returns the message-layer schedule catalog derived from one
// base seed — the msg counterpart of Suite, kept separate so existing
// callers of Suite are untouched.
func MsgSuite(seed int64) []MsgSchedule {
	mix := func(s MsgSchedule) MsgSchedule {
		if s.Messages == 0 {
			s.Messages = 200
		}
		if s.EagerLen == 0 {
			s.EagerLen = 512
		}
		if s.RdvLen == 0 {
			s.RdvLen = 32 << 10
		}
		if s.RdvEvery == 0 {
			s.RdvEvery = 5
		}
		return s
	}
	return []MsgSchedule{
		mix(MsgSchedule{
			Name: "msg-clean-baseline", Seed: seed,
			CheckWire: true,
		}),
		mix(MsgSchedule{
			Name: "msg-burst-loss", Seed: seed + 1,
			FaultAB:   faultnet.Config{GE: &GESoak},
			FaultBA:   faultnet.Config{GE: &GESoak},
			CheckWire: true,
		}),
		mix(MsgSchedule{
			Name: "msg-reorder-dup-corrupt", Seed: seed + 2,
			FaultAB:   faultnet.Config{ReorderRate: 0.2, ReorderSpan: 4, DupRate: 0.15, CorruptRate: 0.05},
			FaultBA:   faultnet.Config{ReorderRate: 0.1, DupRate: 0.1, CorruptRate: 0.05},
			CheckWire: true,
		}),
		mix(MsgSchedule{
			Name: "msg-partition-heal", Seed: seed + 3,
			PartitionAtMsg: 100, PartitionDur: 300 * time.Millisecond,
			CheckWire: true,
		}),
		mix(MsgSchedule{
			Name: "msg-crash-restart", Seed: seed + 4,
			CrashAtMsg: 100,
		}),
	}
}
