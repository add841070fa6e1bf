package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestTailsIgnoreOneSidedOutliers is the estimator's reason for being: when a
// neighbour slows four slices in five — what this host does for seconds at a
// time — the 95th-percentile rate and 5th-percentile cost still read the
// undisturbed figure, where the mean, the median and even the quartile are
// dragged off.
func TestTailsIgnoreOneSidedOutliers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trueRate, perMsg = 1e6, 1000.0 // messages per second, ns per message
	var sl []slice
	var meanRate float64
	const n = 200
	for i := 0; i < n; i++ {
		slow := 1 + 0.01*rng.Float64() // 1% measurement jitter
		if i%5 != 0 {
			slow = 1.1 + 0.4*rng.Float64() // a neighbour took 10–35% of the core
		}
		wall := 100 * time.Millisecond
		msgs := int64(trueRate * wall.Seconds() / slow)
		sl = append(sl, slice{wall: wall, cpu: wall, msgs: msgs, bytes: msgs * kib})
		meanRate += float64(msgs) / wall.Seconds() / n
	}
	r := rate(sl, func(s slice) float64 { return float64(s.msgs) })
	c := cost(sl, sliceWallNs)
	if d := math.Abs(r.hi/trueRate - 1); d > 0.015 {
		t.Errorf("95th-percentile rate %.0f is %.1f%% off the true %.0f", r.hi, 100*d, trueRate)
	}
	if d := math.Abs(c.lo/perMsg - 1); d > 0.015 {
		t.Errorf("5th-percentile cost %.1f ns is %.1f%% off the true %.1f", c.lo, 100*d, perMsg)
	}
	for name, v := range map[string]float64{"mean": meanRate, "median": r.med, "upper quartile": r.q3} {
		if d := math.Abs(v/trueRate - 1); d < 0.015 {
			t.Errorf("fixture too tame: the %s is only %.1f%% off, so it does not show why the tail is read", name, 100*d)
		}
	}
	if r.lo > r.q1 || r.q1 > r.med || r.med > r.q3 || r.q3 > r.hi {
		t.Errorf("spread out of order: %+v", r)
	}
}

func TestPlan(t *testing.T) {
	warm, n, length := plan(20)
	if warm != time.Second || n != 200 || length != 100*time.Millisecond {
		t.Errorf("plan(20) = %v, %d × %v; want 1s, 200 × 100ms", warm, n, length)
	}
	if _, n, length := plan(0.2); n != 8 || length != 25*time.Millisecond {
		t.Errorf("plan(0.2) = %d × %v; want 8 × 25ms", n, length)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNamesFitTheContract(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads; 2 to 8 allowed", len(workloads))
	}
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		use(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.window%len(w.sizes) != 0 {
			t.Errorf("%s: window %d is not a multiple of its %d sizes", w.name, w.window, len(w.sizes))
		}
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		use(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
}

// TestManifestMatchesTheBinary keeps BENCHMARK.json and the names, units,
// directions and bounds this binary prints from drifting apart.
func TestManifestMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.Command, []string{"go", "run", "./benchmark"}) || !slices.Equal(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d built", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, built %q", i, m.Workloads[i].Name, w.name)
		}
	}
	if !slices.Equal(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n declared %v\n printed  %v", m.EndToEnd, endToEnd)
	}
	if !slices.Equal(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n declared %v\n printed  %v", m.PerLayer, perLayer)
	}
}

func TestLaddersSkipWhatAWorkloadBypasses(t *testing.T) {
	want := map[string][]string{
		"ud_send_1k":     {"simnet", "ddp", "core"},
		"rd_send_1k":     {"simnet", "rudp", "ddp", "core"},
		"ud_wr_1m_loss":  {"simnet", "ddp", "core"},
		"msg_mix_rd":     {"simnet", "rudp", "ddp", "core", "msg"},
		"sock_rd_1k_udp": {"transport", "rudp", "ddp", "core", "sockif"},
	}
	for _, w := range workloads {
		if got := w.rungs(); !slices.Equal(got, want[w.name]) {
			t.Errorf("%s: rungs %v, want %v", w.name, got, want[w.name])
		}
	}
}

func positive(t *testing.T, w string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics printed, %d declared", w, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v)", w, d.Name, m, ok)
		}
	}
}

// TestSmoke is a 200 ms pass of every workload with payload checks on, and
// one ladder. It asserts correctness and shape, never a timing.
func TestSmoke(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		res, err := runEndToEnd(w, 3, 0.2, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		positive(t, w.name, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, must never be 0", w.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		if f := res.Metrics["delivered_frac"].Value; w.lossy() == (f == 1) {
			t.Errorf("%s: delivered_frac %v", w.name, f)
		}
	}

	w, _ := findWorkload("rd_send_1k")
	dir := t.TempDir()
	res, err := runTraced(w, 3, 0.4, dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	positive(t, "rd_send_1k traced", res, perLayer)
	for _, l := range w.rungs() {
		if res.Metrics[l+".cum_ns_per_msg"].Value <= 0 {
			t.Errorf("rung %s has no cumulative time", l)
		}
	}
	for _, l := range []string{"transport", "msg", "sockif"} {
		if v := res.Metrics[l+".self_ns_per_msg"].Value; v != 0 {
			t.Errorf("rd_send_1k does not cross %s, yet its self time is %v", l, v)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "trace-rd_send_1k.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, s := range file.Spans {
		names[s.Name]++
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	if names["msg"] == 0 || names["wait"] == 0 || names["post"] == 0 {
		t.Errorf("span file holds %v; want msg, wait and post spans", names)
	}
}
