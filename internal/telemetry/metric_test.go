package telemetry

import (
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Load(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	// bits.Len64 buckets: 0 → bucket 0 (le 0), 1 → bucket 1 (le 1),
	// 2..3 → bucket 2 (le 3), 4..7 → bucket 3 (le 7).
	for _, v := range []int64{0, 1, 2, 3, 4, 7, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if s.Sum != 17 { // negative clamps to 0
		t.Fatalf("sum = %d, want 17", s.Sum)
	}
	want := map[uint64]int64{0: 2, 1: 1, 3: 2, 7: 2}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want bounds %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Errorf("bucket le=%d count = %d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestHistogramMeanQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if m := s.Mean(); m < 10485 || m > 10487 {
		t.Fatalf("mean = %f", m)
	}
	if q := s.Quantile(0.5); q != 1 {
		t.Fatalf("p50 = %d, want 1", q)
	}
	// The single huge value lives in the top bucket; p99.9 must land there.
	if q := s.Quantile(0.999); q < 1<<20-1 {
		t.Fatalf("p99.9 = %d, want ≥ %d", q, 1<<20-1)
	}
	var empty HistogramSnapshot
	if empty.Mean() != 0 || empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot must report zeros")
	}
}

func TestRegistryAggregatesHandles(t *testing.T) {
	r := NewRegistry()
	// Two components registering the same name: the per-instance handles
	// stay exact, the snapshot is the sum.
	a := r.Counter("diwarp_test_total")
	b := r.Counter("diwarp_test_total")
	a.Add(3)
	b.Add(4)
	if a.Load() != 3 || b.Load() != 4 {
		t.Fatalf("handles not independent: %d, %d", a.Load(), b.Load())
	}
	h1 := r.Histogram("diwarp_test_lat")
	h2 := r.Histogram("diwarp_test_lat")
	h1.Observe(1)
	h2.Observe(1)
	h2.Observe(100)
	g := r.Gauge("diwarp_test_depth")
	g.Set(9)

	s := r.Snapshot()
	if s.Counters["diwarp_test_total"] != 7 {
		t.Fatalf("counter sum = %d, want 7", s.Counters["diwarp_test_total"])
	}
	if s.Gauges["diwarp_test_depth"] != 9 {
		t.Fatalf("gauge = %d, want 9", s.Gauges["diwarp_test_depth"])
	}
	hs := s.Histograms["diwarp_test_lat"]
	if hs.Count != 3 || hs.Sum != 102 {
		t.Fatalf("merged histogram = %+v", hs)
	}
}

// TestValidName pins the metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*
// class by class.
func TestValidName(t *testing.T) {
	for _, c := range []struct {
		name string
		ok   bool
	}{
		{"", false},
		{"a", true},
		{"Z", true},
		{"_", true},
		{":", true},
		{"9", false},
		{"9lives", false},
		{"a9", true},
		{"diwarp_rudp_cc_cwnd", true},
		{"job:diwarp_bytes:rate5m", true},
		{"__private", true},
		{"bad name", false},
		{"bad-name", false},
		{"bad.name", false},
		{"bad!", false},
		{"métrique", false},
		{"a\x00b", false},
	} {
		if got := validName(c.name); got != c.ok {
			t.Errorf("validName(%q) = %v, want %v", c.name, got, c.ok)
		}
	}
}

func TestRegistryRejectsBadName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for malformed metric name")
		}
	}()
	NewRegistry().Counter("bad name!")
}

// TestConcurrentRecording hammers counters and histograms from many
// goroutines while a reader snapshots continuously — the satellite -race
// test: `go test -race` must pass and the final totals must be exact.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 10000
	)
	c := r.Counter("diwarp_test_hammer_total")
	h := r.Histogram("diwarp_test_hammer_lat")
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := r.Snapshot()
			// Monotonic sanity while writers are live.
			if s.Counters["diwarp_test_hammer_total"] < 0 {
				t.Error("negative counter mid-run")
				return
			}
		}
	}()

	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			// Half the workers share the registered handles, half register
			// their own under the same names (the multi-QP shape).
			cc, hh := c, h
			if w%2 == 1 {
				cc = r.Counter("diwarp_test_hammer_total")
				hh = r.Histogram("diwarp_test_hammer_lat")
			}
			for i := 0; i < iters; i++ {
				cc.Inc()
				hh.Observe(int64(i))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	s := r.Snapshot()
	if got := s.Counters["diwarp_test_hammer_total"]; got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := s.Histograms["diwarp_test_hammer_lat"].Count; got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[int64]string{
		0:        "0",
		7:        "7",
		999:      "999",
		1000:     "1,000",
		1234567:  "1,234,567",
		-9876543: "-9,876,543",
	}
	for in, want := range cases {
		if got := FormatValue(in); got != want {
			t.Errorf("FormatValue(%d) = %q, want %q", in, got, want)
		}
	}
}
