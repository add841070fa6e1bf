// Package telemetry is the stack's runtime observability spine: a
// hotpath-safe metrics registry, a fixed-size datapath trace ring, and
// exposition (Prometheus text format, JSON snapshots, an HTTP handler). It
// is a leaf: every layer of the stack, transport included, registers into
// it, and the pcap wire taps that decorate transport's interfaces live in
// package pcap.
//
// The paper's evaluation hinges on seeing datapath behaviour — loss-driven
// retransmits, Write-Record placement, UD vs RC segmentation — and the
// monitoring literature it sits in (RDMAvisor; "Revisiting Network Support
// for RDMA", see PAPERS.md) argues RDMA deployments need a first-class
// monitoring plane with per-event visibility, not just end-of-run
// aggregates. This package provides both planes:
//
//   - aggregates: [Counter], [Gauge], and power-of-two-bucket [Histogram]
//     primitives whose record operations are single atomic updates — zero
//     allocations, no locks, no interface boxing — so they are legal inside
//     //diwarp:hotpath functions and enforced as such by the hotpath
//     analyzer (the record methods carry the annotation);
//   - events: a lock-free sequence-stamped [Ring] of typed datapath events
//     (send, recv, retransmit, drop, Write-Record placement, CRC failure)
//     drained post-hoc by tests, the trace endpoint, and diwarp-top;
//   - exposition: [WritePrometheus], [Snapshot] JSON, and [Handler] for
//     embedding in daemons (cmd/iwarpd serves it behind -metrics).
//
// Metric instances are registered into a [Registry] (usually [Default])
// under Prometheus-style names. Several components may register handles
// under the same name — every UD queue pair registers
// diwarp_ud_msgs_sent_total, for example — and the registry aggregates
// them at snapshot time, so per-instance accessors (UDQP.Stats,
// rudp's Snapshot) stay exact while the process-wide view is the sum.
package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; obtain registered instances from [Registry.Counter].
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
//
//diwarp:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//diwarp:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down. The zero value is ready to
// use; obtain registered instances from [Registry.Gauge].
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
//
//diwarp:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
//
//diwarp:hotpath
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// histBuckets is the bucket count of a power-of-two histogram:
// bits.Len64 maps a non-negative value into 0..64.
const histBuckets = 65

// Histogram accumulates non-negative integer observations (latencies in
// microseconds, batch sizes, message lengths) into power-of-two buckets:
// bucket k counts values v with bits.Len64(v) == k, i.e. v in
// [2^(k-1), 2^k). Observing is three atomic adds — no locks, no
// allocation — so it is hotpath-legal; the trade is coarse (factor-of-two)
// resolution, which is exactly the precision a latency distribution under
// loss needs. Negative observations clamp to zero.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
//
//diwarp:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Bucket is one histogram bucket in a snapshot: Count observations whose
// value was ≤ Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"` // inclusive upper bound: 2^k - 1
	Count int64  `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram (or of several
// merged by the registry). Buckets are non-cumulative and truncated after
// the highest non-empty bucket.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Buckets = appendBuckets(s.Buckets, &h.buckets)
	return s
}

// appendBuckets converts the atomic bucket array into snapshot buckets,
// dropping the empty tail.
func appendBuckets(dst []Bucket, b *[histBuckets]atomic.Int64) []Bucket {
	hi := -1
	for k := histBuckets - 1; k >= 0; k-- {
		if b[k].Load() != 0 {
			hi = k
			break
		}
	}
	for k := 0; k <= hi; k++ {
		dst = append(dst, Bucket{Le: bucketBound(k), Count: b[k].Load()})
	}
	return dst
}

// bucketBound returns bucket k's inclusive upper value bound.
func bucketBound(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(k) - 1
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// (q in [0,1]) — an estimate no finer than the power-of-two resolution.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	target := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		cum += float64(b.Count)
		if cum >= target {
			return b.Le
		}
	}
	return s.Buckets[len(s.Buckets)-1].Le
}
