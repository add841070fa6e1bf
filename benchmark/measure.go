package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/stats"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the stack sees; every workload reports all of
// them from an untraced run. Bounds are the share of the parent's median by
// which a metric may worsen; README.md records the spreads they come from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_MBps", "MB/s", "higher", 0.25},
	{"cpu_us_per_msg", "us", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.02},
	{"alloc_B_per_msg", "B", "lower", 0.05},
	{"heap_live_MB", "MB", "lower", 0.25},
	{"delivered_frac", "frac", "higher", 0.01},
}

// spread is the estimator every timed figure goes through: where a run's
// slices (or latency windows, or set-ups) lie. Interference on a shared host
// only ever slows a slice down, so a rate is read near the top of its slices
// and a cost near the bottom; the quartiles and median are printed beside it
// to show the skew. README.md has the measurements behind the choice of tail
// and slice length.
type spread struct{ lo, q1, med, q3, hi float64 }

// tail is how far from the end a figure is read: the 95th percentile slice
// for a rate, the 5th for a cost. It needs a twentieth of the run to be
// quiet, and leaves the single luckiest slices out.
const tail = 5

func sample(xs []float64) *stats.Sample {
	s := &stats.Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func spreadOf(xs []float64) spread {
	s := sample(xs)
	return spread{s.Percentile(tail), s.Percentile(25), s.Percentile(50), s.Percentile(75), s.Percentile(100 - tail)}
}

func percentile(xs []float64, p float64) float64 { return sample(xs).Percentile(p) }

// rate spreads the slices' per-second values; the estimate is hi.
func rate(sl []slice, f func(slice) float64) spread {
	xs := make([]float64, 0, len(sl))
	for _, s := range sl {
		if s.wall > 0 {
			xs = append(xs, f(s)/s.wall.Seconds())
		}
	}
	return spreadOf(xs)
}

// cost spreads the slices' per-message values; the estimate is lo.
func cost(sl []slice, f func(slice) float64) spread {
	xs := make([]float64, 0, len(sl))
	for _, s := range sl {
		if s.msgs > 0 {
			xs = append(xs, f(s)/float64(s.msgs))
		}
	}
	return spreadOf(xs)
}

func sliceBytes(s slice) float64  { return float64(s.bytes) }
func sliceWallNs(s slice) float64 { return float64(s.wall.Nanoseconds()) }
func sliceCPUUs(s slice) float64  { return float64(s.cpu.Nanoseconds()) / 1e3 }

// plan cuts a run of the given length into warm-up and slices: 0.1 s slices
// when the run is long enough for at least eight, else eight shorter ones.
func plan(seconds float64) (warm time.Duration, n int, length time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	length = 100 * time.Millisecond
	n = int(total / length)
	if n < 8 {
		n, length = 8, total/8
	}
	return min(time.Second, total/8), n, length
}

// setup builds the workload's full stack from nothing to its first delivered
// message, tears it down, and returns the build-to-delivery time in seconds
// and the failures it saw.
func setup(w workload, src slots, seed int64) (float64, int64, error) {
	// Collect first, untimed: otherwise every third or fourth set-up pays
	// for a collection of its predecessors' garbage and the series is a mix
	// of two costs.
	runtime.GC()
	t0 := time.Now()
	l, err := startLoop(w, w.top, src, seed, w.loss)
	if err != nil {
		return 0, 0, err
	}
	if err = l.hold(); err == nil {
		_, err = l.single()
	}
	d := time.Since(t0).Seconds()
	failed := l.t.progress().failed
	l.close()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, failed, nil
}

// result is one run's outcome in the shape the driver reads.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = measured{v, d.Unit}
			return
		}
	}
	panic("undeclared metric " + name)
}

// postedBytes is the payload of the first n messages of w.
func postedBytes(w workload, n uint64) int64 {
	var cycle int64
	for _, s := range w.sizes {
		cycle += int64(s)
	}
	total := int64(n/uint64(len(w.sizes))) * cycle
	for i := uint64(0); i < n%uint64(len(w.sizes)); i++ {
		total += int64(w.sizes[i])
	}
	return total
}

// rounds is how many times an untraced run alternates its three phases.
const rounds = 20

// runEndToEnd is the untraced run, all on one P. After the warm-up it
// alternates a group of throughput slices, an unloaded-latency window and
// two fresh set-ups, rounds times over: this host's interference comes in
// episodes of a second or more, and a phase run once, in one short block,
// falls wholly inside or outside one. Spread over the run, every figure has
// quiet samples for its decile or quartile to find.
func runEndToEnd(w workload, seed int64, seconds float64, log io.Writer) (*result, error) {
	runtime.GOMAXPROCS(1)
	src := newSlots(w, seed)
	res := &result{Metrics: map[string]measured{}}
	total := time.Duration(seconds * float64(time.Second))

	l, err := startLoop(w, w.top, src, seed, w.loss)
	if err != nil {
		return nil, err
	}
	defer l.close()
	warm, n, length := plan(seconds)
	if err := l.warm(warm); err != nil {
		return nil, err
	}
	var (
		sl        []slice
		su, latMd []float64
		latAll    []float64
		mem       memMark
		msgs      int64
		suFailed  int64
	)
	group := max(1, n/rounds)
	for len(sl) < n {
		// The set-ups' forced collections empty the stack's sync.Pools, so a
		// group's first slice refills them; allocations are counted from the
		// second on.
		k := min(group, n-len(sl))
		first, err := l.pump(min(1, k-1), length)
		if err != nil {
			return nil, err
		}
		m0, p0 := readMem(), l.t.progress()
		rest, err := l.pump(k-len(first), length)
		if err != nil {
			return nil, err
		}
		m1, p1 := readMem(), l.t.progress()
		sl = append(append(sl, first...), rest...)
		mem.mallocs += m1.mallocs - m0.mallocs
		mem.bytes += m1.bytes - m0.bytes
		msgs += p1.delivered - p0.delivered

		lat, err := l.latency(total/(20*rounds), 64)
		if err != nil {
			return nil, err
		}
		latMd = append(latMd, percentile(lat, 50))
		latAll = append(latAll, lat...)

		for i := 0; i < 2; i++ {
			d, failed, err := setup(w, src, seed)
			if err != nil {
				return nil, err
			}
			su = append(su, d)
			suFailed += failed
		}
	}
	undrained := l.drain()
	heap := heapLive()
	p := l.t.progress()

	suQ, latQ := spreadOf(su), spreadOf(latMd)
	good := rate(sl, sliceBytes)
	cpu := cost(sl, sliceCPUUs)
	res.set(endToEnd, "setup_s", suQ.lo)
	res.set(endToEnd, "goodput_MBps", good.hi/1e6)
	res.set(endToEnd, "cpu_us_per_msg", cpu.lo)
	res.set(endToEnd, "lat_p50_us", latQ.lo)
	// Both allocation figures are reported as 1 + x: ROADMAP asks for a
	// zero-alloc path, and a ratio bound on a value that reaches 0 gates
	// nothing. At 1 + x such a path reads 1.0 and one new allocation per
	// message reads 2.0.
	res.set(endToEnd, "allocs_per_msg", 1+float64(mem.mallocs)/float64(msgs))
	res.set(endToEnd, "alloc_B_per_msg", 1+float64(mem.bytes)/float64(msgs))
	res.set(endToEnd, "heap_live_MB", float64(heap)/1e6)
	res.set(endToEnd, "delivered_frac", float64(p.valid)/float64(postedBytes(w, p.next)))

	res.Attempted = int64(l.seq) + int64(len(su))
	res.Failed = p.failed + undrained + suFailed
	res.Correct = res.Failed == 0

	fmt.Fprintf(log, "%s: %d slices of %v after %v warm-up\n", w.name, len(sl), length, warm)
	fmt.Fprintf(log, "  goodput_MBps    hi %.2f  q3 %.2f  median %.2f  q1 %.2f\n", good.hi/1e6, good.q3/1e6, good.med/1e6, good.q1/1e6)
	fmt.Fprintf(log, "  cpu_us_per_msg  lo %.4f  q1 %.4f  median %.4f  q3 %.4f\n", cpu.lo, cpu.q1, cpu.med, cpu.q3)
	wall := cost(sl, sliceWallNs)
	fmt.Fprintf(log, "  wall_ns_per_msg lo %.1f  q1 %.1f  median %.1f  q3 %.1f\n", wall.lo, wall.q1, wall.med, wall.q3)
	fmt.Fprintf(log, "  lat_p50_us      lo %.3f  q1 %.3f  median %.3f  q3 %.3f  over %d windows; all %d samples: p50 %.3f  p99 %.3f\n",
		latQ.lo, latQ.q1, latQ.med, latQ.q3, len(latMd), len(latAll), percentile(latAll, 50), percentile(latAll, 99))
	fmt.Fprintf(log, "  setup_s         lo %.6f  q1 %.6f  median %.6f  q3 %.6f  n %d\n", suQ.lo, suQ.q1, suQ.med, suQ.q3, len(su))
	series := func(name string, xs []float64, scale float64) {
		fmt.Fprintf(log, "  %-15s", name)
		for _, x := range xs {
			fmt.Fprintf(log, " %.4g", x*scale)
		}
		fmt.Fprintln(log)
	}
	rates := make([]float64, len(sl))
	for i, s := range sl {
		rates[i] = float64(s.bytes) / s.wall.Seconds() / 1e6
	}
	series("slices MB/s", rates, 1)
	series("latency us", latMd, 1)
	series("set-ups us", su, 1e6)
	if p.err != nil {
		fmt.Fprintf(log, "  FIRST FAILURE: %v\n", p.err)
	}
	if undrained != 0 {
		fmt.Fprintf(log, "  UNDRAINED: %d messages\n", undrained)
	}
	return res, nil
}
