package probest

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"tends/internal/core"
	"tends/internal/datasets"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/lfr"
)

// benchInput is a status matrix and the topology TENDS inferred from it:
// what the influence pipeline hands probest.
type benchInput struct {
	sm *diffusion.StatusMatrix
	g  *graph.Directed
}

// inferInput simulates beta cascades on g (edge probabilities around mu,
// seeding rate alpha) and infers the topology the fit runs on.
func inferInput(g *graph.Directed, mu, alpha float64, beta int, sparse bool, rng *rand.Rand) (benchInput, error) {
	ep := diffusion.NewEdgeProbs(g, mu, 0.05, rng)
	sim, err := diffusion.Simulate(ep, diffusion.Config{Alpha: alpha, Beta: beta}, rng)
	if err != nil {
		return benchInput{}, err
	}
	res, err := core.Infer(sim.Statuses, core.Options{Sparse: sparse})
	if err != nil {
		return benchInput{}, err
	}
	return benchInput{sm: sim.Statuses, g: res.Graph}, nil
}

// The inputs are built once per test binary: the n=10⁴ inference takes
// seconds, and the benchmark function runs once per b.N probe.
var (
	// dunfInput is the DUNF stand-in at β=250 with the paper's §V
	// defaults (μ 0.3, α 0.15), one cell of the Figs. 8–9 sweep.
	dunfInput = sync.OnceValues(func() (benchInput, error) {
		g, err := datasets.DUNF(1)
		if err != nil {
			return benchInput{}, err
		}
		return inferInput(g, 0.3, 0.15, 250, false, rand.New(rand.NewSource(1)))
	})
	// lfrInput is the scale instance at n=10⁴, β=1024 on the sparse
	// engine (μ 0.08, α 10/n).
	lfrInput = sync.OnceValues(func() (benchInput, error) {
		const n = 10000
		rng := rand.New(rand.NewSource(1))
		net, err := lfr.Generate(lfr.Params{N: n, AvgDegree: 10, DegreeExp: 2}, rng)
		if err != nil {
			return benchInput{}, err
		}
		return inferInput(net.Graph, 0.08, 10.0/n, 1024, true, rng)
	})
)

var benchEstimate *Estimate

func BenchmarkRunContext(b *testing.B) {
	for _, bc := range []struct {
		name  string
		input func() (benchInput, error)
	}{
		{"DUNF/beta=250", dunfInput},
		{"LFR/n=1e4/beta=1024", lfrInput},
	} {
		b.Run(bc.name, func(b *testing.B) {
			in, err := bc.input()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchEstimate, err = RunContext(context.Background(), in.sm, in.g, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
