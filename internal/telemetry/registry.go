package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// Default is the process-wide registry every stack component registers
// into; cmd/iwarpd exposes it over HTTP and cmd/iwarpbench prints it after
// a run. Tests that need isolation construct their own [NewRegistry].
var Default = NewRegistry()

// Registry is a set of named metrics. Each call to Counter/Gauge/Histogram
// creates a NEW handle registered under the name: components keep their
// handle for exact per-instance reads, and the registry sums all handles
// sharing a name at snapshot time for the process-wide view. Registration
// takes the registry lock (cold path, at component construction); recording
// through a handle touches only that handle's atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string][]*Counter
	gauges   map[string][]*Gauge
	hists    map[string][]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string][]*Counter),
		gauges:   make(map[string][]*Gauge),
		hists:    make(map[string][]*Histogram),
	}
}

// checkName panics on malformed metric names: registration happens at
// component construction, so a typo fails fast in any test that builds the
// component rather than surfacing as a half-broken scrape in production.
func checkName(name string) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
}

// validName reports whether name fits the Prometheus metric-name grammar,
// [a-zA-Z_:][a-zA-Z0-9_:]*, so exposition never emits an unscrapable line.
func validName(name string) bool {
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', c == '_', c == ':':
		case '0' <= c && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return name != ""
}

// Counter registers and returns a new counter handle under name.
func (r *Registry) Counter(name string) *Counter {
	checkName(name)
	c := &Counter{}
	r.mu.Lock()
	r.counters[name] = append(r.counters[name], c)
	r.mu.Unlock()
	return c
}

// Gauge registers and returns a new gauge handle under name.
func (r *Registry) Gauge(name string) *Gauge {
	checkName(name)
	g := &Gauge{}
	r.mu.Lock()
	r.gauges[name] = append(r.gauges[name], g)
	r.mu.Unlock()
	return g
}

// Histogram registers and returns a new histogram handle under name.
func (r *Registry) Histogram(name string) *Histogram {
	checkName(name)
	h := &Histogram{}
	r.mu.Lock()
	r.hists[name] = append(r.hists[name], h)
	r.mu.Unlock()
	return h
}

// Snapshot is a point-in-time aggregate of a registry: one value per name,
// summed over every registered handle. The maps marshal to stable JSON
// (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot aggregates the registry's current state. Handles are read with
// atomic loads while writers keep recording; the snapshot is a consistent
// "no torn values" view, not a stop-the-world one — exactly what a scrape
// of a live daemon can promise.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, hs := range r.counters {
		var sum int64
		for _, h := range hs {
			sum += h.Load()
		}
		s.Counters[name] = sum
	}
	for name, hs := range r.gauges {
		var sum int64
		for _, h := range hs {
			sum += h.Load()
		}
		s.Gauges[name] = sum
	}
	for name, hs := range r.hists {
		var merged [histBuckets]int64
		var agg HistogramSnapshot
		for _, h := range hs {
			agg.Count += h.count.Load()
			agg.Sum += h.sum.Load()
			for k := range h.buckets {
				merged[k] += h.buckets[k].Load()
			}
		}
		hi := -1
		for k := histBuckets - 1; k >= 0; k-- {
			if merged[k] != 0 {
				hi = k
				break
			}
		}
		for k := 0; k <= hi; k++ {
			agg.Buckets = append(agg.Buckets, Bucket{Le: bucketBound(k), Count: merged[k]})
		}
		s.Histograms[name] = agg
	}
	return s
}

// sortedKeys returns m's keys in lexical order (exposition determinism).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
