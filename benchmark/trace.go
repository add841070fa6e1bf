package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/crcx"
	"repro/internal/memreg"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// layers are the seams of the ladder, bottom up. A workload crosses a subset.
var layers = []string{"simnet", "transport", "rudp", "ddp", "core", "msg", "sockif"}

// perLayer lists every metric of the traced run. Rungs a workload does not
// cross read 0.
var perLayer = func() []metricDef {
	var d []metricDef
	for _, l := range layers {
		d = append(d,
			metricDef{Name: l + ".cum_ns_per_msg", Unit: "ns", Better: "lower"},
			metricDef{Name: l + ".self_ns_per_msg", Unit: "ns", Better: "lower"},
			metricDef{Name: l + ".self_allocs_per_msg", Unit: "count", Better: "lower"},
			metricDef{Name: l + ".self_alloc_B_per_msg", Unit: "B", Better: "lower"},
		)
	}
	return append(d, []metricDef{
		{Name: "simnet.wire_pkts_per_msg", Unit: "count", Better: "lower"},
		{Name: "simnet.wire_B_per_payload_B", Unit: "ratio", Better: "lower"},
		{Name: "simnet.lost_frac", Unit: "frac", Better: "lower"},
		{Name: "rudp.retx_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "rudp.rto_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "rudp.spurious_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "rudp.cwnd_end", Unit: "count", Better: "higher"},
		{Name: "core.segs_per_send_batch", Unit: "count", Better: "higher"},
		{Name: "core.segs_per_recv_batch", Unit: "count", Better: "higher"},
		{Name: "core.pool_hit_rate", Unit: "frac", Better: "higher"},
		{Name: "core.swept_partials_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "msg.eager_share", Unit: "frac", Better: "higher"},
		{Name: "msg.credit_stalls_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "msg.rdv_swept_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "sockif.truncated_per_kmsg", Unit: "count", Better: "lower"},
		{Name: "crcx.ns_per_KiB", Unit: "ns", Better: "lower"},
		{Name: "memreg.register_ns_per_MiB", Unit: "ns", Better: "lower"},
		{Name: "app.post_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "app.wait_ns_per_msg", Unit: "ns", Better: "lower"},
		{Name: "app.lat_p99_us", Unit: "us", Better: "lower"},
		{Name: "app.setup_drift_frac", Unit: "frac", Better: "lower"},
		{Name: "rudp.loss_goodput_frac", Unit: "frac", Better: "higher"},
		{Name: "rudp.loss_rto_share", Unit: "frac", Better: "lower"},
		{Name: "rudp.loss_retx_per_drop", Unit: "count", Better: "lower"},
		{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	}...)
}()

// ------------------------------------------------------------- spans -------

// span is one timed interval of the generator: the message as a whole, and
// under it the wait for a credit and the call into the stack.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Msg    uint64 `json:"msg"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept for the file. Every generator call is timed
// and summed; only the first maxSpans spans are kept whole.
const maxSpans = 60000

type spanLog struct {
	kept    []span
	dropped int64
	waitNs  int64
	postNs  int64
	n       int64
	root    []int64 // per slot, start of the message now occupying it
}

func newSpanLog(window int) *spanLog {
	return &spanLog{kept: make([]span, 0, maxSpans), root: make([]int64, window)}
}

func (s *spanLog) add(sp span) {
	if len(s.kept) < maxSpans {
		s.kept = append(s.kept, sp)
	} else {
		s.dropped++
	}
}

// Span ids: message m owns 3m+1 (msg), 3m+2 (wait), 3m+3 (post).
func (l *loop) oneTraced() error {
	s := l.spans
	t0 := nanotime()
	if err := l.credit(); err != nil {
		return err
	}
	// The credit proves the slot's previous occupant was finalised, and
	// orders its delivery stamp before this read.
	l.closeSpan(l.seq - uint64(l.w.window))
	l.t.begun.Store(l.seq + 1)
	t1 := nanotime()
	if err := l.rig.post(l.seq, l.src.stamp(l.seq)); err != nil {
		return fmt.Errorf("post %d: %w", l.seq, err)
	}
	t2 := nanotime()
	id := 3 * l.seq
	s.root[l.seq%uint64(l.w.window)] = t0
	s.add(span{"wait", id + 2, id + 1, l.seq, t0, t1})
	s.add(span{"post", id + 3, id + 1, l.seq, t1, t2})
	s.waitNs += t1 - t0
	s.postNs += t2 - t1
	s.n++
	l.seq++
	l.t.posted.Store(l.seq)
	return nil
}

// closeSpan ends message seq's root span at its delivery stamp. Messages
// posted before tracing began, or finalised without a notification, have no
// stamp and leave no root span.
func (l *loop) closeSpan(seq uint64) {
	slot := seq % uint64(l.w.window)
	if seq > l.seq || l.spans.root[slot] == 0 {
		return
	}
	if at := l.t.doneAt[slot]; at != 0 {
		l.spans.add(span{"msg", 3*seq + 1, 0, seq, l.spans.root[slot], at})
	}
	l.spans.root[slot] = 0
}

// closeSpans ends the root spans of the last window once the loop drained.
func (l *loop) closeSpans() {
	if l.spans == nil {
		return
	}
	for seq := l.seq - min(l.seq, uint64(l.w.window)); seq < l.seq; seq++ {
		l.closeSpan(seq)
	}
}

func (s *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Dropped  int64  `json:"spans_dropped"`
		Spans    []span `json:"spans"`
	}{workload, s.dropped, s.kept})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ------------------------------------------------------------ ladder -------

// scrape reads the process-wide registry: the same handles the per-instance
// Counters/Snapshot/Stats accessors read, reachable for the layers (sockif's
// rudp, msg's QP) that do not export their instance.
func scrape() map[string]int64 {
	s := telemetry.Default.Snapshot()
	for k, v := range s.Gauges {
		s.Counters[k] = v
	}
	return s.Counters
}

// rung is one rung of the ladder: a stack built up to some layer and what
// its turns measured.
type rung struct {
	layer string
	l     *loop
	pool  transport.RecvPoolStats // the wire's receive-buffer pool, if it has one

	sl       []slice
	mem      memMark          // allocations during the slices
	msgs     int64            // messages delivered during the slices
	counters map[string]int64 // registry delta over the rung's life
	poolHits int64
	poolMiss int64
}

// openRung builds the rung and warms it up. With sp it is the traced pass:
// a span around every generator call, the receiver stamping every delivery.
func openRung(w workload, layer string, src slots, seed int64, loss float64, warm time.Duration, sp *spanLog) (*rung, error) {
	before := scrape()
	l, err := startLoop(w, layer, src, seed, loss)
	if err != nil {
		return nil, err
	}
	r := &rung{layer: layer, l: l, counters: map[string]int64{}}
	r.pool, _ = l.wireB.(transport.RecvPoolStats)
	err = r.counted(before, func() error {
		if err := l.warm(warm); err != nil {
			return err
		}
		if left := l.drain(); left != 0 {
			return fmt.Errorf("%s rung: %d messages undrained", layer, left)
		}
		if sp != nil {
			l.spans = sp
			l.t.stamps.Store(true)
		}
		return nil
	})
	if err != nil {
		l.close()
		return nil, err
	}
	return r, nil
}

// counted runs f and adds what the registry and the wire's pool counted
// meanwhile to the rung. Rungs take turns, so the delta is the rung's own.
func (r *rung) counted(before map[string]int64, f func() error) error {
	var h0, m0 int64
	if r.pool != nil {
		h0, m0 = r.pool.RecvPoolStats()
	}
	err := f()
	if r.pool != nil {
		h1, m1 := r.pool.RecvPoolStats()
		r.poolHits, r.poolMiss = r.poolHits+h1-h0, r.poolMiss+m1-m0
	}
	for k, v := range scrape() {
		r.counters[k] += v - before[k]
	}
	return err
}

// turn measures n more slices and drains the loop, so that the next rung's
// turn has the processor — and the shared source slots — to itself.
func (r *rung) turn(n int, length time.Duration) error {
	return r.counted(scrape(), func() error {
		m0, p0 := readMem(), r.l.t.progress()
		sl, err := r.l.pump(n, length)
		if err != nil {
			return err
		}
		m1, p1 := readMem(), r.l.t.progress()
		r.sl = append(r.sl, sl...)
		r.mem.mallocs += m1.mallocs - m0.mallocs
		r.mem.bytes += m1.bytes - m0.bytes
		r.msgs += p1.delivered - p0.delivered
		if left := r.l.drain(); left != 0 {
			return fmt.Errorf("%s rung: %d messages undrained", r.layer, left)
		}
		return nil
	})
}

func (r *rung) ns() float64     { return cost(r.sl, sliceWallNs).lo }
func (r *rung) rate() float64   { return rate(r.sl, sliceBytes).hi }
func (r *rung) allocs() float64 { return float64(r.mem.mallocs) / float64(r.msgs) }
func (r *rung) bytes() float64  { return float64(r.mem.bytes) / float64(r.msgs) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func perK(a, msgs int64) float64 { return 1000 * ratio(a, msgs) }

// turns is how many times the traced run goes round its rungs, and setupRuns
// how many fresh set-ups it times first, for the drift between them.
const (
	turns     = 6
	setupRuns = 31
)

// runTraced is the traced run: the ladder, the generator spans on the top
// rung, the leaf probes and the RD loss probe. Every rung is built at the
// start and the rungs then take turns, a twentieth of the run at a time, so
// that an episode of interference (see runEndToEnd) lands on a slice or two
// of every rung and not on the whole of one.
func runTraced(w workload, seed int64, seconds float64, outDir string, log io.Writer) (*result, error) {
	runtime.GOMAXPROCS(1)
	src := newSlots(w, seed)
	res := &result{Metrics: map[string]measured{}}
	for _, d := range perLayer {
		res.set(perLayer, d.Name, 0)
	}
	total := time.Duration(seconds * float64(time.Second))

	var su []float64
	for i := 0; i < setupRuns; i++ {
		d, failed, err := setup(w, src, seed)
		if err != nil {
			return nil, err
		}
		su = append(su, d)
		res.Attempted++
		res.Failed += failed
	}
	early, late := spreadOf(su[:5]).med, spreadOf(su[len(su)-5:]).med
	res.set(perLayer, "app.setup_drift_frac", late/early-1)
	runtime.GC()

	// 3 s of a 20 s run for each rung, 5 s for the loss probe.
	var all, ladder []*rung
	defer func() {
		for _, r := range all {
			r.l.close()
		}
	}()
	open := func(layer string, loss float64, sp *spanLog) (*rung, error) {
		r, err := openRung(w, layer, src, seed, loss, total*3/200, sp)
		if err == nil {
			all = append(all, r)
		}
		return r, err
	}
	for _, layer := range w.rungs() {
		r, err := open(layer, w.loss, nil)
		if err != nil {
			return nil, err
		}
		ladder = append(ladder, r)
	}
	top := ladder[len(ladder)-1]
	sp := newSpanLog(w.window)
	traced, err := open(w.top, w.loss, sp)
	if err != nil {
		return nil, err
	}
	var lossy *rung
	if w.lossProbe {
		if lossy, err = open("rudp", 0.001, nil); err != nil {
			return nil, err
		}
	}
	_, n, length := plan(seconds * 27 / 200)
	for i := 0; i < turns; i++ {
		for _, r := range all {
			k, length := (n+turns-1)/turns, length
			if r == lossy {
				// One long slice: its figure is the mean rate, stalls and
				// all, and a stall must not stretch every slice it spans.
				k, length = 1, time.Duration(k)*length*5/3
			}
			if err := r.turn(k, length); err != nil {
				return nil, err
			}
		}
	}

	var below *rung
	for _, r := range ladder {
		self := [3]float64{r.ns(), r.allocs(), r.bytes()}
		if below != nil {
			self = [3]float64{r.ns() - below.ns(), r.allocs() - below.allocs(), r.bytes() - below.bytes()}
		}
		res.set(perLayer, r.layer+".cum_ns_per_msg", r.ns())
		res.set(perLayer, r.layer+".self_ns_per_msg", self[0])
		res.set(perLayer, r.layer+".self_allocs_per_msg", self[1])
		res.set(perLayer, r.layer+".self_alloc_B_per_msg", self[2])
		fmt.Fprintf(log, "  rung %-9s cum %10.1f ns/msg  self %10.1f ns  %8.3f allocs  %10.1f B   (%.2f MB/s)\n",
			r.layer, r.ns(), self[0], self[1], self[2], r.rate()/1e6)
		below = r
	}

	c, m := top.counters, top.l.t.progress().delivered
	res.set(perLayer, "simnet.wire_pkts_per_msg", ratio(c["diwarp_simnet_datagrams_sent_total"], m))
	res.set(perLayer, "simnet.wire_B_per_payload_B", ratio(c["diwarp_simnet_bytes_sent_total"], postedBytes(w, top.l.seq)))
	res.set(perLayer, "simnet.lost_frac", ratio(c["diwarp_simnet_drop_loss_total"], c["diwarp_simnet_datagrams_sent_total"]))
	res.set(perLayer, "rudp.retx_per_kmsg", perK(c["diwarp_rudp_retransmits_total"], m))
	res.set(perLayer, "rudp.rto_per_kmsg", perK(c["diwarp_rudp_rto_expired_total"], m))
	res.set(perLayer, "rudp.spurious_per_kmsg", perK(c["diwarp_rudp_cc_spurious_rexmits_total"], m))
	// The gauge sums every endpoint's last value; the delta over the rung's
	// life is its two endpoints, of which the sender's moves.
	res.set(perLayer, "rudp.cwnd_end", float64(c["diwarp_rudp_cc_cwnd"])/2)
	res.set(perLayer, "core.segs_per_send_batch", ratio(c["diwarp_ddp_segments_total"], c["diwarp_ddp_batches_total"]))
	res.set(perLayer, "core.segs_per_recv_batch", ratio(c["diwarp_ddp_recv_segments_total"], c["diwarp_ddp_recv_batches_total"]))
	res.set(perLayer, "core.pool_hit_rate", ratio(top.poolHits, top.poolHits+top.poolMiss))
	res.set(perLayer, "core.swept_partials_per_kmsg", perK(c["diwarp_ud_swept_total"], m))
	res.set(perLayer, "msg.eager_share", ratio(c["diwarp_msg_eager_sent_total"], c["diwarp_msg_eager_sent_total"]+c["diwarp_msg_rdv_sent_total"]))
	res.set(perLayer, "msg.credit_stalls_per_kmsg", perK(c["diwarp_msg_credit_stalls_total"], m))
	res.set(perLayer, "msg.rdv_swept_per_kmsg", perK(c["diwarp_msg_rdv_swept_total"], m))
	res.set(perLayer, "sockif.truncated_per_kmsg", perK(c["diwarp_sock_truncated_total"], m))

	if lossy != nil {
		c := lossy.counters
		var bytes, wall float64
		for _, s := range lossy.sl {
			bytes, wall = bytes+float64(s.bytes), wall+s.wall.Seconds()
		}
		res.set(perLayer, "rudp.loss_goodput_frac", bytes/wall/ladder[1].rate())
		res.set(perLayer, "rudp.loss_rto_share", ratio(c["diwarp_rudp_rto_expired_total"], c["diwarp_rudp_retransmits_total"]))
		res.set(perLayer, "rudp.loss_retx_per_drop", ratio(c["diwarp_rudp_retransmits_total"], c["diwarp_simnet_drop_loss_total"]))
	}

	traced.l.spans = nil
	lat, err := traced.l.latency(total/20, 64)
	if err != nil {
		return nil, err
	}
	res.set(perLayer, "app.post_ns_per_msg", ratio(sp.postNs, sp.n))
	res.set(perLayer, "app.wait_ns_per_msg", ratio(sp.waitNs, sp.n))
	res.set(perLayer, "app.lat_p99_us", percentile(lat, 99))
	res.set(perLayer, "trace.overhead_frac", 1-traced.rate()/top.rate())
	if err := sp.write(outDir, w.name); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	for _, r := range all {
		p := r.l.t.progress()
		res.Attempted += int64(r.l.seq)
		res.Failed += p.failed
		if p.err != nil {
			fmt.Fprintf(log, "  FIRST FAILURE on the %s rung: %v\n", r.layer, p.err)
		}
	}
	res.set(perLayer, "crcx.ns_per_KiB", probeCRC())
	res.set(perLayer, "memreg.register_ns_per_MiB", probeRegister())
	res.Correct = res.Failed == 0
	return res, nil
}

// ------------------------------------------------------------ probes -------

// probe times f in 32 batches of n calls and returns the 5th-percentile batch
// in ns per call.
func probe(n int, f func()) float64 {
	xs := make([]float64, 32)
	for i := range xs {
		t0 := time.Now()
		for k := 0; k < n; k++ {
			f()
		}
		xs[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return spreadOf(xs).lo
}

var crcSink uint32

// probeCRC times CRC32C over a datagram-sized buffer, per KiB.
func probeCRC() float64 {
	buf := make([]byte, 64*kib)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	return probe(64, func() { crcSink += crcx.Checksum(buf) }) / 64
}

// probeRegister times registering and deregistering a 1 MiB region.
func probeRegister() float64 {
	pd, tbl := memreg.NewPD(), memreg.NewTable()
	buf := make([]byte, mib)
	return probe(64, func() {
		r, err := tbl.Register(pd, buf, memreg.RemoteWrite)
		if err == nil {
			err = tbl.Deregister(r.STag())
		}
		if err != nil {
			panic(err)
		}
	})
}
