package core

import (
	"context"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

// randomStatuses builds a beta×n status matrix with ~half the bits set.
func randomStatuses(n, beta int, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	sm := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				sm.Set(p, v, true)
			}
		}
	}
	return sm
}

// TestIMINoopObsAllocsIndependentOfSize pins the no-op recorder guarantee on
// the IMI hot loop: without a recorder in the context, the telemetry calls
// must not allocate, so ComputeIMIContext's allocation count is a small
// constant independent of the node count. A per-row or per-pair allocation
// anywhere in the loop would make the larger matrix allocate more.
func TestIMINoopObsAllocsIndependentOfSize(t *testing.T) {
	ctx := context.Background()
	small := randomStatuses(16, 64, 1)
	large := randomStatuses(64, 64, 2)
	measure := func(sm *diffusion.StatusMatrix) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := ComputeIMIContext(ctx, sm, false, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := measure(small), measure(large)
	if a != b {
		t.Fatalf("allocation count scales with matrix size: n=16 → %.1f, n=64 → %.1f", a, b)
	}
}

// TestInferRecordsTelemetry runs inference with a recorder attached and
// checks the spans and counters the core stage promises.
func TestInferRecordsTelemetry(t *testing.T) {
	sm := statusesFromChain(t, 16, 80, 3)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	res, err := InferContext(ctx, sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	n := int64(sm.N())
	if got := s.Counters["core/imi/rows"]; got != n-1 {
		t.Fatalf("core/imi/rows = %d, want %d", got, n-1)
	}
	if got := s.Counters["core/imi/pairs"]; got != n*(n-1)/2 {
		t.Fatalf("core/imi/pairs = %d, want %d", got, n*(n-1)/2)
	}
	if s.Counters["core/search/combos"] == 0 {
		t.Fatal("no combinations counted")
	}
	if res.Graph.NumEdges() > 0 && s.Counters["core/search/merges"] == 0 {
		t.Fatal("edges inferred but no greedy merges counted")
	}
	for _, span := range []string{"core/infer", "core/imi", "core/threshold", "core/search"} {
		ts, ok := s.Timings[span]
		if !ok || ts.Count == 0 {
			t.Fatalf("span %q not recorded (timings: %v)", span, s.Timings)
		}
	}
	// The sub-phases are nested inside core/infer and cannot exceed it.
	total := s.Timings["core/infer"].TotalNS
	sub := s.Timings["core/imi"].TotalNS + s.Timings["core/threshold"].TotalNS + s.Timings["core/search"].TotalNS
	if sub > total {
		t.Fatalf("nested spans (%d ns) exceed the enclosing core/infer span (%d ns)", sub, total)
	}
}

// TestPoolRunsCounter checks core/threshold/pool_runs, the number of
// distinct positive pairwise values the threshold selectors read, against a
// count from the sort-based reference pool, on both engines.
func TestPoolRunsCounter(t *testing.T) {
	sm := statusesFromChain(t, 40, 120, 4)
	want := int64(len(referenceOf(ComputeIMI(sm, false).PairValues()).pos))
	if want == 0 {
		t.Fatal("workload has no positive pairwise values")
	}
	for _, sparse := range []bool{false, true} {
		rec := obs.New()
		if _, err := InferContext(obs.With(context.Background(), rec), sm, Options{Sparse: sparse}); err != nil {
			t.Fatal(err)
		}
		if got := rec.Snapshot().Counters["core/threshold/pool_runs"]; got != want {
			t.Fatalf("sparse=%v: core/threshold/pool_runs = %d, want %d", sparse, got, want)
		}
	}
}

// TestSearchSubSpans checks that the parent search splits its time into
// the enumerate, merge and prune phases, each nested inside core/search
// (workers run the phases concurrently, so they are compared at one
// worker).
func TestSearchSubSpans(t *testing.T) {
	sm := statusesFromChain(t, 16, 80, 3)
	rec := obs.New()
	ctx := obs.With(context.Background(), rec)
	if _, err := InferContext(ctx, sm, Options{BackwardPrune: true, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	s := rec.Snapshot()
	var sub int64
	for _, span := range []string{"core/search/enumerate", "core/search/merge", "core/search/prune"} {
		ts, ok := s.Timings[span]
		if !ok || ts.Count == 0 {
			t.Fatalf("span %q not recorded (timings: %v)", span, s.Timings)
		}
		sub += ts.TotalNS
	}
	if total := s.Timings["core/search"].TotalNS; sub > total {
		t.Fatalf("search sub-spans (%d ns) exceed the enclosing core/search span (%d ns)", sub, total)
	}
}

// TestInferIdenticalWithAndWithoutRecorder guards the side-channel-only
// promise: attaching a recorder must not change the inferred topology.
func TestInferIdenticalWithAndWithoutRecorder(t *testing.T) {
	sm := statusesFromChain(t, 14, 70, 5)
	plain, err := Infer(sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	instrumented, err := InferContext(obs.With(context.Background(), rec), sm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Graph.Equal(instrumented.Graph) {
		t.Fatal("recorder changed the inferred graph")
	}
	if plain.Threshold != instrumented.Threshold || plain.Score != instrumented.Score {
		t.Fatalf("recorder changed diagnostics: %v/%v vs %v/%v",
			plain.Threshold, plain.Score, instrumented.Threshold, instrumented.Score)
	}
}

// statusesFromChain simulates a symmetric chain workload, the cheap standard
// instance of the core tests.
func statusesFromChain(t *testing.T, n, beta int, seed int64) *diffusion.StatusMatrix {
	t.Helper()
	g := graph.Chain(n)
	g.Symmetrize()
	rng := rand.New(rand.NewSource(seed))
	ep := diffusion.NewEdgeProbs(g, 0.4, 0.05, rng)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.15, Beta: beta}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res.Statuses
}
