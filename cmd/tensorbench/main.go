// Command tensorbench drives the message layer (internal/msg) with
// ML-style tensor-transfer traffic: N workers exchange tensors drawn from
// a configurable size distribution in an allreduce-ring or
// parameter-server pattern, and the run reports goodput (MB/s) plus exact
// p50/p99 completion latency. Three modes make the eager/rendezvous
// crossover visible end to end:
//
//	msg    — the full message layer: eager below the threshold,
//	         rendezvous zero-copy Write-Record placement above it
//	eager  — the message layer with the threshold pinned above the
//	         largest tensor, so everything pays the eager staging copy
//	direct — raw UD verbs: PostSend into pre-posted max-size receives,
//	         the datapath every in-tree workload used before the layer
//
// All modes run over rudp (reliable LLP) on either an in-process simnet
// (default) or kernel UDP loopback (-udp), so mode deltas measure the
// datapath, not loss recovery. -compare sweeps all three modes in one
// process; -smoke is the CI gate: a small simnet mix that must deliver
// every tensor with nonzero goodput and shut down cleanly.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	iwarp "repro/internal/core"
	"repro/internal/memreg"
	"repro/internal/msg"
	"repro/internal/nio"
	"repro/internal/rudp"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tensorbench: ")
	var (
		workers   = flag.Int("workers", 4, "number of workers")
		pattern   = flag.String("pattern", "ring", "traffic pattern: ring (allreduce ring) | ps (parameter server)")
		tensors   = flag.Int("tensors", 64, "tensors sent per sending worker")
		mixSpec   = flag.String("mix", "16k=0.5,256k=0.35,1m=0.15", "tensor size distribution: size=weight[,...] with k/m suffixes")
		mode      = flag.String("mode", "msg", "datapath: msg | eager | direct")
		threshold = flag.Int("threshold", 0, "eager threshold for -mode msg (0 = library default)")
		udp       = flag.Bool("udp", false, "run over kernel UDP loopback instead of in-process simnet")
		seed      = flag.Int64("seed", 1, "base seed for the per-worker size samplers")
		compare   = flag.Bool("compare", false, "run direct, eager, and msg modes back to back and print a table")
		smoke     = flag.Bool("smoke", false, "CI smoke: small simnet mix; exit non-zero unless all tensors land with nonzero goodput")
	)
	flag.Parse()

	cfg := benchConfig{
		workers: *workers, pattern: *pattern, tensors: *tensors,
		mode: *mode, threshold: *threshold, udp: *udp, seed: *seed,
	}
	if *smoke {
		cfg = benchConfig{workers: 3, pattern: "ring", tensors: 8, mode: "msg", seed: *seed}
		*mixSpec = "4k=0.7,64k=0.3"
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		log.Fatalf("bad -mix: %v", err)
	}
	cfg.mix = mix
	if cfg.workers < 2 {
		log.Fatal("-workers must be at least 2")
	}
	switch cfg.pattern {
	case "ring", "ps":
	default:
		log.Fatalf("unknown -pattern %q", cfg.pattern)
	}

	if *smoke {
		res, err := runBench(cfg)
		if err != nil {
			log.Printf("smoke FAILED: %v", err)
			os.Exit(1)
		}
		if res.delivered != cfg.expected() || res.mbps <= 0 {
			log.Printf("smoke FAILED: delivered %d/%d tensors at %.2f MB/s", res.delivered, cfg.expected(), res.mbps)
			os.Exit(1)
		}
		fmt.Printf("tensorbench smoke OK: %d/%d tensors, %.2f MB/s, p50 %v p99 %v\n",
			res.delivered, cfg.expected(), res.mbps, res.p50, res.p99)
		return
	}

	printHeader()
	if *compare {
		for _, m := range []string{"direct", "eager", "msg"} {
			cfg.mode = m
			res, err := runBench(cfg)
			if err != nil {
				log.Fatalf("mode %s: %v", m, err)
			}
			printResult(res)
		}
		return
	}
	res, err := runBench(cfg)
	if err != nil {
		log.Fatal(err)
	}
	printResult(res)
}

type benchConfig struct {
	workers   int
	pattern   string
	tensors   int
	mix       sizeMix
	mode      string
	threshold int
	udp       bool
	seed      int64
}

// expected is the total number of tensor deliveries a clean run produces.
func (c benchConfig) expected() int {
	if c.pattern == "ps" {
		return (c.workers - 1) * c.tensors
	}
	return c.workers * c.tensors
}

type result struct {
	mode, pattern string
	delivered     int
	bytes         int64
	elapsed       time.Duration
	mbps          float64
	p50, p99      time.Duration
}

func printHeader() {
	fmt.Printf("%-8s %-6s %10s %12s %10s %12s %12s\n",
		"mode", "pat", "tensors", "bytes", "MB/s", "p50", "p99")
	fmt.Println(strings.Repeat("-", 76))
}

func printResult(r result) {
	fmt.Printf("%-8s %-6s %10d %12d %10.1f %12v %12v\n",
		r.mode, r.pattern, r.delivered, r.bytes, r.mbps, r.p50, r.p99)
}

// sizeMix is a discrete tensor-size distribution.
type sizeMix struct {
	sizes []int
	cum   []float64 // cumulative weights, normalized to 1
}

func parseMix(spec string) (sizeMix, error) {
	var m sizeMix
	var weights []float64
	total := 0.0
	for _, part := range strings.Split(spec, ",") {
		sz, wt, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return m, fmt.Errorf("entry %q is not size=weight", part)
		}
		n, err := parseSize(sz)
		if err != nil {
			return m, err
		}
		w, err := strconv.ParseFloat(wt, 64)
		if err != nil || w <= 0 {
			return m, fmt.Errorf("bad weight %q", wt)
		}
		m.sizes = append(m.sizes, n)
		weights = append(weights, w)
		total += w
	}
	if len(m.sizes) == 0 {
		return m, fmt.Errorf("empty mix")
	}
	acc := 0.0
	for _, w := range weights {
		acc += w / total
		m.cum = append(m.cum, acc)
	}
	return m, nil
}

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	// Every tensor carries a 16-byte stamp (timestamp, sender, seq).
	if n*mult < stampLen {
		return 0, fmt.Errorf("size %q below the %d-byte stamp", s, stampLen)
	}
	return n * mult, nil
}

func (m sizeMix) sample(r *rand.Rand) int {
	f := r.Float64()
	for i, c := range m.cum {
		if f <= c {
			return m.sizes[i]
		}
	}
	return m.sizes[len(m.sizes)-1]
}

func (m sizeMix) max() int {
	n := 0
	for _, s := range m.sizes {
		if s > n {
			n = s
		}
	}
	return n
}

// stampLen is the tensor payload preamble: send time (8), sender (4),
// sequence (4). The rest of the tensor is left zeroed — the benchmark
// measures movement, not generation.
const stampLen = 16

func stamp(p []byte, worker, seq int) {
	binary.BigEndian.PutUint64(p[0:8], uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint32(p[8:12], uint32(worker))
	binary.BigEndian.PutUint32(p[12:16], uint32(seq))
}

// collector accumulates deliveries across all workers and signals when the
// run's expected count lands.
type collector struct {
	mu       sync.Mutex
	lat      stats.Sample // µs
	bytes    int64
	n        int
	expected int
	done     chan struct{}
}

func newCollector(expected int) *collector {
	return &collector{expected: expected, done: make(chan struct{})}
}

func (c *collector) deliver(data []byte) {
	now := time.Now().UnixNano()
	if len(data) < stampLen {
		return
	}
	sent := int64(binary.BigEndian.Uint64(data[0:8]))
	c.mu.Lock()
	c.lat.AddDuration(time.Duration(now - sent))
	c.bytes += int64(len(data))
	c.n++
	if c.n == c.expected {
		close(c.done)
	}
	c.mu.Unlock()
}

func (c *collector) snapshot() (int, int64, time.Duration, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	us := func(p float64) time.Duration { return time.Duration(c.lat.Percentile(p) * float64(time.Microsecond)) }
	return c.n, c.bytes, us(50), us(99)
}

// node is one worker's datapath: an address to be sent to, a send
// function, and a teardown.
type node struct {
	addr  transport.Addr
	send  func(to transport.Addr, p []byte) error
	close func()
}

func runBench(cfg benchConfig) (result, error) {
	col := newCollector(cfg.expected())
	maxSize := cfg.mix.max()

	// LLP: rudp over simnet or kernel UDP loopback, per worker.
	var net *simnet.Network
	if !cfg.udp {
		net = simnet.New(simnet.Config{})
	}
	openLLP := func(i int) (*rudp.Endpoint, error) {
		var base transport.Datagram
		var err error
		if cfg.udp {
			base, err = transport.ListenUDP("127.0.0.1", 0)
		} else {
			base, err = net.OpenDatagram(fmt.Sprintf("w%d", i), 1)
		}
		if err != nil {
			return nil, err
		}
		return rudp.New(base), nil
	}

	nodes := make([]*node, cfg.workers)
	for i := range nodes {
		ep, err := openLLP(i)
		if err != nil {
			return result{}, err
		}
		var n *node
		switch cfg.mode {
		case "msg", "eager":
			n, err = openMsgNode(cfg, ep, maxSize, col)
		case "direct":
			n, err = openDirectNode(cfg, ep, maxSize, col)
		default:
			ep.Close()
			return result{}, fmt.Errorf("unknown -mode %q", cfg.mode)
		}
		if err != nil {
			ep.Close()
			return result{}, fmt.Errorf("open worker %d: %w", i, err)
		}
		nodes[i] = n
	}
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.close()
			}
		}
	}()

	// Senders: ring sends i→(i+1)%N; ps pushes 1..N-1→0.
	start := time.Now()
	errCh := make(chan error, cfg.workers)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		if cfg.pattern == "ps" && i == 0 {
			continue // worker 0 is the parameter server: receive only
		}
		dst := nodes[(i+1)%cfg.workers].addr
		if cfg.pattern == "ps" {
			dst = nodes[0].addr
		}
		wg.Add(1)
		go func(i int, dst transport.Addr) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.seed + int64(i)))
			for seq := 0; seq < cfg.tensors; seq++ {
				p := make([]byte, cfg.mix.sample(r))
				stamp(p, i, seq)
				if err := nodes[i].send(dst, p); err != nil {
					errCh <- fmt.Errorf("worker %d send %d: %w", i, seq, err)
					return
				}
			}
		}(i, dst)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return result{}, err
	default:
	}
	select {
	case <-col.done:
	case <-time.After(2 * time.Minute):
		n, _, _, _ := col.snapshot()
		return result{}, fmt.Errorf("stalled: delivered %d/%d tensors", n, cfg.expected())
	}
	elapsed := time.Since(start)

	n, bytes, p50, p99 := col.snapshot()
	return result{
		mode: cfg.mode, pattern: cfg.pattern,
		delivered: n, bytes: bytes, elapsed: elapsed,
		mbps: float64(bytes) / 1e6 / elapsed.Seconds(),
		p50:  p50, p99: p99,
	}, nil
}

// openMsgNode runs the message layer. Mode "eager" pins the threshold
// above the largest tensor so every transfer pays the eager staging path;
// its receive depth shrinks accordingly, since each posted receive is a
// threshold-sized pooled buffer.
func openMsgNode(cfg benchConfig, ep *rudp.Endpoint, maxSize int, col *collector) (*node, error) {
	mc := msg.Config{
		Reliable:  true,
		RecvDepth: 128,
		Handler: func(m msg.Message) {
			col.deliver(m.Data)
			m.Release()
		},
	}
	switch {
	case cfg.mode == "eager":
		mc.EagerThreshold = maxSize
		mc.RecvDepth = 16
	case cfg.threshold > 0:
		mc.EagerThreshold = cfg.threshold
	}
	if mc.EagerThreshold >= 64<<10 {
		mc.RecvDepth = 16
	}
	e, err := msg.Open(ep, mc)
	if err != nil {
		return nil, err
	}
	return &node{
		addr:  e.LocalAddr(),
		send:  func(to transport.Addr, p []byte) error { return e.Send(to, p) },
		close: func() { e.Close() },
	}, nil
}

// openDirectNode is the raw-verbs baseline: PostSend into pre-posted
// max-size receives, with one goroutine recycling the receive ring and
// another draining send completions.
func openDirectNode(cfg benchConfig, ep *rudp.Endpoint, maxSize int, col *collector) (*node, error) {
	const depth = 16
	scq, rcq := iwarp.NewCQ(1024), iwarp.NewCQ(2*depth)
	qp, err := iwarp.OpenUD(ep, memreg.NewPD(), memreg.NewTable(), scq, rcq, iwarp.UDConfig{
		RecvDepth:  depth + 1,
		BlockOnRNR: true,
	})
	if err != nil {
		return nil, err
	}
	bufs := make(map[uint64][]byte, depth)
	for id := uint64(1); id <= depth; id++ {
		buf := make([]byte, maxSize)
		bufs[id] = buf
		if err := qp.PostRecv(id, buf); err != nil {
			qp.Close()
			return nil, err
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // receive ring
		defer wg.Done()
		for {
			e, err := rcq.Poll(100 * time.Millisecond)
			if err != nil {
				select {
				case <-done:
					return
				default:
					continue
				}
			}
			if e.Type != iwarp.WTRecv || !e.Ok() {
				continue
			}
			buf := bufs[e.WRID]
			col.deliver(buf[:e.ByteLen])
			if err := qp.PostRecv(e.WRID, buf); err != nil {
				return
			}
		}
	}()
	go func() { // drain send completions
		defer wg.Done()
		for {
			if _, err := scq.Poll(100 * time.Millisecond); err != nil {
				select {
				case <-done:
					return
				default:
				}
			}
		}
	}()
	return &node{
		addr: qp.LocalAddr(),
		send: func(to transport.Addr, p []byte) error { return qp.PostSend(0, to, nio.VecOf(p)) },
		close: func() {
			qp.Close()
			close(done)
			wg.Wait()
		},
	}, nil
}
