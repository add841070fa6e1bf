package main

// Many-peer soak harness: one reliable-datagram endpoint holding the state
// of tens of thousands of live conversations over simnet, with heap
// accounting per peer. This is the paper's Figure 11 argument driven to
// scale in software — a datagram endpoint's per-peer cost is one table
// entry and one send window, not a connection — and the acceptance gate for
// the sharded peer table: occupancy, memory, and liveness must all hold at
// 100k peers. It lives with the daemon, not in package rudp: it drives the
// simulator, which production packages do not import.

import (
	"fmt"
	"log"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/peertab"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// runSoakPeers drives the many-peer soak: one reliable-datagram hub holding
// `peers` live conversations over simnet, reporting the per-peer memory
// figure and the peer-table shape. The rudp layer publishes the
// diwarp_peertab_* gauges as it goes, so a concurrent -metrics scrape shows
// the table filling. Exit status is the acceptance gate — a non-nil error
// means an invariant (full occupancy, quiescent retransmit wheel, delivery)
// failed, not just that a number looked bad.
func runSoakPeers(cfg soakConfig) error {
	rep, err := soakManyPeers(cfg)
	if err != nil {
		return err
	}
	log.Printf("soak ok: %s", rep)
	return nil
}

// soakConfig parameterises soakManyPeers.
type soakConfig struct {
	// Peers is how many distinct remote addresses converse with the hub.
	Peers int
	// Duration bounds the hold phase (populate time is extra).
	Duration time.Duration
	// Shards overrides the hub's peer-table stripe count (0 = scale with
	// Peers: one stripe per ~64 expected entries, minimum the default).
	Shards int
	// Progress, if non-nil, receives human-readable phase updates.
	Progress func(format string, args ...any)
}

// soakReport is the outcome of one many-peer soak.
type soakReport struct {
	Peers       int
	Delivered   int64         // messages the hub delivered
	HeapBase    uint64        // bytes with the harness up but no peers admitted
	HeapPeers   uint64        // bytes with every peer's conversation established
	HeapPeak    uint64        // high-water mark across the hold phase
	PerPeer     float64       // (HeapPeers - HeapBase) / Peers
	Sys         uint64        // runtime.MemStats.Sys at the end (RSS proxy)
	Table       peertab.Stats // hub peer-table occupancy and imbalance
	ArmedTimers int
	Hold        time.Duration
}

func (r soakReport) String() string {
	return fmt.Sprintf(
		"peers=%d delivered=%d heap base=%.1f MiB populated=%.1f MiB peak=%.1f MiB per-peer=%.0f B sys=%.1f MiB shards=%d shard max/min=%d/%d armed=%d hold=%s",
		r.Peers, r.Delivered,
		float64(r.HeapBase)/(1<<20), float64(r.HeapPeers)/(1<<20), float64(r.HeapPeak)/(1<<20),
		r.PerPeer, float64(r.Sys)/(1<<20),
		r.Table.Shards, r.Table.ShardMax, r.Table.ShardMin, r.ArmedTimers, r.Hold,
	)
}

// soakPayload keeps frames small: the soak measures peer state, not
// bandwidth.
const soakPayload = 32

// heapNow forces a collection and reads the live heap.
func heapNow() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// soakSender is one simulated remote peer: a raw simnet endpoint plus just
// enough conversation state (next seq) to emit valid DATA frames through
// rudp.AppendData — spinning up one full rudp.Endpoint per simulated peer
// would measure goroutine stacks, not peer state.
type soakSender struct {
	ep    *simnet.DatagramEndpoint
	seq   uint32
	frame []byte // reusable wire buffer
}

// send emits the peer's next in-order DATA frame to the hub.
func (s *soakSender) send(hub transport.Addr, epoch byte, payload []byte) error {
	s.frame = rudp.AppendData(s.frame[:0], epoch, s.seq, payload)
	s.seq++
	return s.ep.SendTo(s.frame, hub)
}

// soakManyPeers runs the soak: admit cfg.Peers conversations on one hub
// endpoint, hold them live for cfg.Duration while sampling the heap, and
// report the per-peer memory figure. The hub's correctness invariants
// (occupancy == Peers, wheel quiescent, pool balanced) are checked and
// reported as errors, not just recorded.
func soakManyPeers(cfg soakConfig) (soakReport, error) {
	if cfg.Peers <= 0 {
		return soakReport{}, fmt.Errorf("soak needs a positive peer count")
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	shards := cfg.Shards
	if shards == 0 {
		shards = max(peertab.DefaultShards, cfg.Peers/64)
	}

	// Small per-endpoint queues: 100k simnet receive queues must not
	// dominate the memory the soak is trying to attribute to peer state.
	// Hub ACKs overflow the senders' queues and drop — senders never read
	// them, exactly like a one-way UDP blaster.
	net := simnet.New(simnet.Config{QueueLen: 8})
	hubEP, err := net.OpenDatagram("hub", 1)
	if err != nil {
		return soakReport{}, err
	}
	hub := rudp.NewConfig(hubEP, rudp.Config{Shards: shards})
	defer hub.Close()

	// Drain the hub's deliveries for the whole run so a full queue never
	// wedges the receive path.
	var delivered atomic.Int64
	go func() {
		for {
			p, _, err := hub.Recv(100 * time.Millisecond)
			if err == transport.ErrClosed {
				return
			}
			if err == nil {
				delivered.Add(1)
				hub.Recycle(p)
			}
		}
	}()

	// Senders spread across nodes: a simnet port is 16-bit, so one node
	// cannot host 100k addresses.
	const peersPerNode = 1024
	frameLen := soakPayload + hubEP.MaxDatagram() - hub.MaxDatagram() // payload + rudp's trailer
	senders := make([]soakSender, cfg.Peers)
	for i := range senders {
		ep, err := net.OpenDatagram(fmt.Sprintf("n%d", i/peersPerNode), 0)
		if err != nil {
			return soakReport{}, err
		}
		senders[i] = soakSender{ep: ep, seq: 1, frame: make([]byte, 0, frameLen)}
	}
	defer func() {
		for i := range senders {
			senders[i].ep.Close() //diwarp:ignore errflow: teardown of a simulated sender after the report is taken; nothing to do with a close error
		}
	}()

	var rep soakReport
	rep.Peers = cfg.Peers
	rep.HeapBase = heapNow()
	progress("soak: harness up, heap %.1f MiB; populating %d peers", float64(rep.HeapBase)/(1<<20), cfg.Peers)

	// Populate: every peer sends one in-order frame, creating its state in
	// the hub's table. simnet is lossless and FIFO per pair, so arrival is
	// guaranteed; poll occupancy to let the receive loop catch up.
	payload := make([]byte, soakPayload)
	hubAddr := hub.LocalAddr()
	for i := range senders {
		if err := senders[i].send(hubAddr, byte(7), payload); err != nil {
			return rep, fmt.Errorf("soak populate peer %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for hub.Peers() < cfg.Peers {
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("soak populate stalled at %d/%d peers", hub.Peers(), cfg.Peers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep.HeapPeers = heapNow()
	rep.PerPeer = float64(rep.HeapPeers-rep.HeapBase) / float64(cfg.Peers)
	rep.HeapPeak = rep.HeapPeers
	progress("soak: %d peers live, heap %.1f MiB (%.0f B/peer); holding %s",
		hub.Peers(), float64(rep.HeapPeers)/(1<<20), rep.PerPeer, cfg.Duration)

	// Hold: a rotating slice of peers keeps the datapath warm (the table
	// must stay correct under live traffic, not just after a burst) while
	// the heap is sampled for growth. One core serves 100k peers, so each
	// tick touches a bounded cohort rather than the full population.
	start := time.Now()
	cohort := cfg.Peers / 64
	if cohort < 1 {
		cohort = 1
	}
	next := 0
	for time.Since(start) < cfg.Duration {
		for i := 0; i < cohort; i++ {
			s := &senders[next%cfg.Peers]
			next++
			if err := s.send(hubAddr, byte(7), payload); err != nil {
				return rep, fmt.Errorf("soak hold send: %w", err)
			}
		}
		time.Sleep(20 * time.Millisecond)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > rep.HeapPeak {
			rep.HeapPeak = ms.HeapAlloc
		}
	}
	rep.Hold = time.Since(start)

	// Invariants at quiesce: full occupancy, no armed retransmit state (the
	// hub only ever received), and an intact table.
	rep.Table = hub.PeerStats()
	rep.ArmedTimers = hub.ArmedTimers()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.Sys = ms.Sys
	if got := hub.Peers(); got != cfg.Peers {
		return rep, fmt.Errorf("soak held %d peers, want %d", got, cfg.Peers)
	}
	if rep.ArmedTimers != 0 {
		return rep, fmt.Errorf("rudp: receive-only soak armed %d retransmit timers", rep.ArmedTimers)
	}
	rep.Delivered = delivered.Load()
	if rep.Delivered == 0 {
		return rep, fmt.Errorf("soak delivered nothing")
	}
	return rep, nil
}
