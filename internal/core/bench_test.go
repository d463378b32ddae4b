package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"tends/internal/datasets"
	"tends/internal/diffusion"
	"tends/internal/graph"
)

// Micro-benchmarks of the TENDS hot paths at the paper's default workload
// scale (n=200, β=150).

func BenchmarkComputeIMI(b *testing.B) {
	m := randomStatus(150, 200, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIMI(m, false)
	}
}

// The acceptance-scale IMI benchmark (n=300), serial vs all-cores.
func BenchmarkComputeIMI300Serial(b *testing.B) {
	m := randomStatus(150, 300, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIMIWorkers(m, false, 1)
	}
}

func BenchmarkComputeIMI300Parallel(b *testing.B) {
	m := randomStatus(150, 300, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeIMIWorkers(m, false, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkEnumerateCombos exercises the prefix-sharing DFS over a
// realistic candidate pool (16 candidates, pairs and triples).
func BenchmarkEnumerateCombos(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	cands := make([]int, 16)
	for i := range cands {
		cands[i] = 2 + 3*i
	}
	for _, size := range []int{2, 3} {
		opt := Options{MaxComboSize: size}.withDefaults()
		b.Run(map[int]string{2: "eta2", 3: "eta3"}[size], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if combos, _ := enumerateCombos(context.Background(), s, 0, cands, opt, time.Time{}); len(combos) == 0 {
					b.Fatal("no combinations enumerated")
				}
			}
		})
	}
}

func BenchmarkSelectThresholdKMeans(b *testing.B) {
	m := randomStatus(150, 200, 42)
	imi := ComputeIMI(m, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectThreshold(imi)
	}
}

func BenchmarkSelectThresholdFDR(b *testing.B) {
	m := randomStatus(150, 200, 42)
	imi := ComputeIMI(m, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SelectThresholdFDR(imi, 150, 0.2)
	}
}

// poolSink keeps benchmarked pools from being optimized away.
var poolSink *valuePool

// BenchmarkValuePool builds the threshold selectors' value pool serially
// from one engine's pair values, the work the pairwise pass spreads over
// its workers. dense is a paper-pipeline cell: the DUNF stand-in (n=750)
// at β=250 with the §V defaults, 280k pairs. sparse is the scale regime:
// β=1024 at 1% density over n=8000, about 3M co-occurring pairs plus the
// never-co-occurring pairs as count-class runs.
func BenchmarkValuePool(b *testing.B) {
	dense := func(b *testing.B) []poolContribution {
		g, err := datasets.DUNF(1)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		ep := diffusion.NewEdgeProbs(g, 0.3, 0.05, rng)
		sim, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.15, Beta: 250}, rng)
		if err != nil {
			b.Fatal(err)
		}
		var parts []poolContribution
		for _, v := range ComputeIMI(sim.Statuses, false).PairValues() {
			parts = append(parts, poolContribution{v, 1})
		}
		return parts
	}
	sparse := func(b *testing.B) []poolContribution {
		s := ComputeSparseIMI(sparseRandomStatus(8000, 1024, 0.01, 42), false)
		var parts []poolContribution
		for v := 0; v < s.n; v++ {
			for k := s.rowStart[v]; k < s.rowStart[v+1]; k++ {
				if int(s.nbr[k]) > v {
					parts = append(parts, poolContribution{s.val[k], 1})
				}
			}
		}
		for r, mv := range s.marginalVals {
			parts = append(parts, poolContribution{mv, s.marginalCnt[r]})
		}
		return parts
	}
	for _, bc := range []struct {
		name  string
		parts func(*testing.B) []poolContribution
	}{
		{"dense/n=750/beta=250", dense},
		{"sparse/n=8000/beta=1024", sparse},
	} {
		b.Run(bc.name, func(b *testing.B) {
			parts := bc.parts(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pb := newPoolBuilder(len(parts))
				for _, p := range parts {
					pb.add(p.v, p.c)
				}
				poolSink = pb.finish()
			}
			b.ReportMetric(float64(len(parts)), "values")
			b.ReportMetric(float64(len(poolSink.pos)), "distinct")
		})
	}
}

func BenchmarkLocalScoreSmall(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	parents := []int{3, 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalScore(0, parents)
	}
}

func BenchmarkLocalScoreLarge(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	parents := []int{3, 17, 42, 77, 101, 150, 163, 199}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalScore(0, parents)
	}
}

// scoreSink keeps benchmarked score evaluations from being optimized away.
var scoreSink float64

// BenchmarkLocalScoreSparse scores parent sets in the subcritical regime
// of the scale workloads: β=1024 with ~1% of each column infected. k=3
// runs the packed masks; k=8 and k=16 run the active-row path, whose
// pooled scratch makes the steady state allocation-free.
func BenchmarkLocalScoreSparse(b *testing.B) {
	m := densityStatus(1024, 17, 0.01, 42)
	s := NewScorer(m)
	for _, k := range []int{3, 8, 16} {
		parents := make([]int, k)
		for i := range parents {
			parents[i] = i + 1
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scoreSink = s.LocalScore(0, parents)
			}
		})
	}
}

// BenchmarkAdaptiveMerge isolates the greedy merge over a pre-enumerated
// combination pool — the stage the mask-based membership test targets.
func BenchmarkAdaptiveMerge(b *testing.B) {
	s := NewScorer(randomStatus(150, 200, 42))
	cands := make([]int, 16)
	for i := range cands {
		cands[i] = 2 + 3*i
	}
	opt := Options{MaxComboSize: 2}.withDefaults()
	combos, _ := enumerateCombos(context.Background(), s, 0, cands, opt, time.Time{})
	if len(combos) == 0 {
		b.Fatal("no combinations enumerated")
	}
	tel := coreTel{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adaptiveMerge(context.Background(), s, 0, combos, opt, tel.merges, time.Time{})
	}
}

func BenchmarkInferChain200(b *testing.B) {
	g := graph.Chain(200)
	g.Symmetrize()
	m := simulateOn(b, g, 0.3, 0.15, 150, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Infer(m, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
