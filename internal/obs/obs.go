// Package obs is a lightweight, dependency-free observability layer for the
// experiment harness and the inference libraries: named counters, gauges and
// duration histograms collected in a Recorder, plus a Span phase-timer API.
//
// Design constraints, in order:
//
//   - Hot loops must stay cheap. Every metric update is a single atomic
//     operation on a pre-resolved handle; histogram buckets are individual
//     atomic words, so concurrent observers never share a lock.
//   - Library callers that do not opt in must pay nothing. The Recorder is
//     carried through context.Context (see With/From); when absent, From
//     returns a nil *Recorder whose entire method set — and the handles it
//     returns — degrade to allocation-free no-ops. Instrumented code is
//     written against that nil-safety and never branches on "is obs on".
//   - Output is a side channel. Snapshots serialize to JSON or a
//     human-readable table, and never participate in the deterministic
//     result artifacts (CSV, graph files) the harness guarantees.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The nil Counter is a
// valid no-op, so handles resolved from an absent Recorder cost nothing.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float, for settings and derived ratios
// (worker counts, utilization). The nil Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value; 0 on a nil Gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of exponential histogram buckets: bucket k
// counts observations whose nanosecond value has bit length k, i.e. the
// half-open range [2^(k-1), 2^k). 64 buckets cover every int64 duration.
const histBuckets = 65

// Histogram accumulates durations: count, sum, min, max, and power-of-two
// exponential buckets. Every field is its own atomic word, so concurrent
// observers contend only on the bucket they hit. The nil Histogram is a
// valid no-op.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	min     atomic.Int64 // nanoseconds; math.MaxInt64 until first observation
	max     atomic.Int64 // nanoseconds
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one duration. Negative durations (clock steps) clamp to 0.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(ns))].Add(1)
}

// Count returns the number of observations; 0 on a nil Histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations; 0 on a nil Histogram.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Start begins timing a phase recorded into h on End. Hot loops resolve the
// histogram once and start spans from it, skipping StartSpan's name lookup.
// On a nil Histogram it returns the zero Span, whose End is free.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// Span times one phase: obtain it from Recorder.StartSpan or
// Histogram.Start, call End when the phase finishes. The zero Span (from a
// nil Recorder) is a free no-op.
type Span struct {
	h     *Histogram
	start time.Time
}

// End records the elapsed time into the span's histogram and returns it.
func (s Span) End() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.start)
	s.h.Observe(d)
	return d
}

// Recorder is a registry of named metrics. Handles are resolved by name once
// (Counter/Gauge/Histogram) and then updated lock-free; resolving the same
// name always yields the same handle. All methods are safe for concurrent
// use, and all are valid — as allocation-free no-ops — on a nil Recorder.
type Recorder struct {
	mu        sync.RWMutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	histos    map[string]*Histogram
	createdAt time.Time
}

// New returns an empty Recorder.
func New() *Recorder {
	return &Recorder{
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		histos:    make(map[string]*Histogram),
		createdAt: time.Now(),
	}
}

// Counter returns the named counter, creating it on first use; nil on a nil
// Recorder.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// Recorder.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first use;
// nil on a nil Recorder.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histos[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histos[name]; h == nil {
		h = newHistogram()
		r.histos[name] = h
	}
	return h
}

// StartSpan begins timing a phase recorded into the named histogram on End.
// On a nil Recorder it returns the zero Span, whose End is free.
func (r *Recorder) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return r.Histogram(name).Start()
}

// sortedKeys returns the keys of m in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
