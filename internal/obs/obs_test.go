package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("events")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("events") != c {
		t.Fatal("same name must resolve to the same counter handle")
	}
	g := r.Gauge("ratio")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
	g.Set(-1.5)
	if got := g.Value(); got != -1.5 {
		t.Fatalf("gauge after reset = %v, want -1.5", got)
	}
}

func TestHistogramStats(t *testing.T) {
	r := New()
	h := r.Histogram("t")
	for _, d := range []time.Duration{time.Microsecond, 2 * time.Microsecond, time.Millisecond, 0} {
		h.Observe(d)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	wantSum := time.Microsecond + 2*time.Microsecond + time.Millisecond
	if h.Sum() != wantSum {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	ts := r.Snapshot().Timings["t"]
	if ts.MinNS != 0 {
		t.Fatalf("min = %d, want 0", ts.MinNS)
	}
	if ts.MaxNS != int64(time.Millisecond) {
		t.Fatalf("max = %d, want %d", ts.MaxNS, int64(time.Millisecond))
	}
	if ts.MeanNS != int64(wantSum)/4 {
		t.Fatalf("mean = %d, want %d", ts.MeanNS, int64(wantSum)/4)
	}
	// The p99 bucket bound must cover the maximum within its 2× guarantee.
	if ts.P99NS < ts.MaxNS || ts.P99NS > 2*ts.MaxNS {
		t.Fatalf("p99 = %d outside [max, 2·max] = [%d, %d]", ts.P99NS, ts.MaxNS, 2*ts.MaxNS)
	}
	// Negative observations clamp to zero instead of corrupting the sum.
	h.Observe(-time.Second)
	if h.Sum() != wantSum {
		t.Fatalf("negative observation changed the sum: %v", h.Sum())
	}
}

func TestSpanRecords(t *testing.T) {
	r := New()
	s := r.StartSpan("phase")
	time.Sleep(time.Millisecond)
	d := s.End()
	if d < time.Millisecond {
		t.Fatalf("span measured %v, slept 1ms", d)
	}
	h := r.Histogram("phase")
	if h.Count() != 1 || h.Sum() != d {
		t.Fatalf("histogram count=%d sum=%v, want 1/%v", h.Count(), h.Sum(), d)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(time.Duration(i))
				r.Gauge("g").Set(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context must yield a nil recorder")
	}
	r := New()
	ctx = With(ctx, r)
	if From(ctx) != r {
		t.Fatal("recorder lost in transit")
	}
	if With(context.Background(), nil) != context.Background() {
		t.Fatal("attaching a nil recorder should be a no-op")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	if r.Counter("x").Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	r.Gauge("y").Set(1)
	if r.Gauge("y").Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	r.Histogram("z").Observe(time.Second)
	if r.Histogram("z").Count() != 0 || r.Histogram("z").Sum() != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	if d := r.StartSpan("s").End(); d != 0 {
		t.Fatalf("nil span measured %v, want 0", d)
	}
	if d := r.Histogram("s").Start().End(); d != 0 {
		t.Fatalf("nil histogram span measured %v, want 0", d)
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Timings != nil {
		t.Fatal("nil recorder snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestNoopPathDoesNotAllocate pins the core guarantee instrumented hot loops
// rely on: with no recorder in the context, resolving handles, bumping
// counters, and running spans must not allocate at all.
func TestNoopPathDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		rec := From(ctx)
		c := rec.Counter("core/imi/rows")
		c.Add(1)
		c.Inc()
		rec.Gauge("workers").Set(4)
		rec.Histogram("lat").Observe(time.Millisecond)
		rec.StartSpan("phase").End()
		rec.Histogram("core/search/merge").Start().End()
	})
	if allocs != 0 {
		t.Fatalf("no-op obs path allocated %.1f times per run, want 0", allocs)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("a").Add(7)
	r.Gauge("b").Set(1.5)
	r.Histogram("c").Observe(3 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if s.Counters["a"] != 7 || s.Gauges["b"] != 1.5 {
		t.Fatalf("snapshot lost values: %+v", s)
	}
	if ts := s.Timings["c"]; ts.Count != 1 || ts.TotalNS != int64(3*time.Millisecond) {
		t.Fatalf("timing lost: %+v", s.Timings["c"])
	}
	if s.UptimeNS <= 0 {
		t.Fatal("uptime not recorded")
	}
}

func TestWriteTextSections(t *testing.T) {
	r := New()
	r.Counter("retries").Add(2)
	r.Gauge("workers").Set(8)
	r.Histogram("cell").Observe(42 * time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counters:", "retries", "gauges:", "workers", "timings:", "cell", "42.00ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestBucketQuantileExtremes(t *testing.T) {
	r := New()
	h := r.Histogram("x")
	h.Observe(time.Duration(math.MaxInt64))
	ts := r.Snapshot().Timings["x"]
	if ts.P50NS != math.MaxInt64 {
		t.Fatalf("max-duration quantile = %d, want MaxInt64", ts.P50NS)
	}
}

// TestQuantilesClampedToRange is the regression test for bucket-bound
// quantiles escaping the observed range: a single 2.06 s sample sits in the
// [2^30, 2^31) ns bucket, whose upper bound 2.15 s used to be reported as
// p50 above the 2.06 s maximum. Quantiles now clamp to [min, max].
func TestQuantilesClampedToRange(t *testing.T) {
	for _, tc := range []struct {
		name    string
		samples []time.Duration
	}{
		{"single sample", []time.Duration{2060 * time.Millisecond}},
		{"identical samples", []time.Duration{3 * time.Millisecond, 3 * time.Millisecond, 3 * time.Millisecond}},
		{"spread samples", []time.Duration{1100 * time.Microsecond, 1200 * time.Microsecond, 1300 * time.Microsecond}},
	} {
		r := New()
		h := r.Histogram("x")
		for _, d := range tc.samples {
			h.Observe(d)
		}
		ts := r.Snapshot().Timings["x"]
		for _, q := range []struct {
			name string
			v    int64
		}{{"p50", ts.P50NS}, {"p90", ts.P90NS}, {"p99", ts.P99NS}} {
			if q.v < ts.MinNS || q.v > ts.MaxNS {
				t.Fatalf("%s: %s = %d outside [min, max] = [%d, %d]", tc.name, q.name, q.v, ts.MinNS, ts.MaxNS)
			}
		}
		if ts.MinNS == ts.MaxNS && (ts.P50NS != ts.MinNS || ts.P99NS != ts.MinNS) {
			t.Fatalf("%s: equal samples must report every quantile as the sample, got %+v", tc.name, ts)
		}
	}
}
