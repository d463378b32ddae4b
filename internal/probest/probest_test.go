package probest

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

// synthNoisyOR samples statuses exactly from the noisy-OR model the
// estimator assumes, so recovery should be accurate.
func synthNoisyOR(t *testing.T, beta int, leak float64, edgeProbs map[graph.Edge]float64, g *graph.Directed, seed int64) *diffusion.StatusMatrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := g.NumNodes()
	m := diffusion.NewStatusMatrix(beta, n)
	// Nodes must be sampled parents-first; builders used in tests are
	// DAG-ordered with parents having smaller ids.
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			q := 1 - leak
			for _, u := range g.Parents(v) {
				if u >= v {
					t.Fatalf("test graph not DAG-ordered: parent %d of %d", u, v)
				}
				if m.Get(p, u) {
					q *= 1 - edgeProbs[graph.Edge{From: u, To: v}]
				}
			}
			if rng.Float64() < 1-q {
				m.Set(p, v, true)
			}
		}
	}
	return m
}

func TestRunRecoversKnownProbabilities(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	want := map[graph.Edge]float64{
		{From: 0, To: 2}: 0.7,
		{From: 1, To: 2}: 0.3,
		{From: 2, To: 3}: 0.5,
	}
	sm := synthNoisyOR(t, 6000, 0.2, want, g, 1)
	est, err := Run(sm, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e, p := range want {
		got := est.Probs[e]
		if math.Abs(got-p) > 0.08 {
			t.Fatalf("edge %v: estimated %.3f, want %.3f", e, got, p)
		}
	}
	for v := 0; v < 4; v++ {
		if math.Abs(est.Leaks[v]-0.2) > 0.08 {
			t.Fatalf("node %d leak = %.3f, want 0.2", v, est.Leaks[v])
		}
	}
}

func TestRunOrdersEdgeStrengths(t *testing.T) {
	// Even with fewer samples, a strong edge must estimate above a weak one.
	g := graph.New(3)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	want := map[graph.Edge]float64{
		{From: 0, To: 2}: 0.8,
		{From: 1, To: 2}: 0.2,
	}
	sm := synthNoisyOR(t, 800, 0.3, want, g, 2)
	est, err := Run(sm, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strong := est.Probs[graph.Edge{From: 0, To: 2}]
	weak := est.Probs[graph.Edge{From: 1, To: 2}]
	if strong <= weak {
		t.Fatalf("strength ordering lost: strong=%.3f weak=%.3f", strong, weak)
	}
}

func TestRunOnSimulatedDiffusion(t *testing.T) {
	// End to end against the IC simulator: estimates won't match per-contact
	// probabilities exactly (the noisy-OR reads final statuses), but edges
	// must get substantially higher probabilities than the leak floor.
	g := graph.Chain(8)
	rng := rand.New(rand.NewSource(3))
	ep := diffusion.UniformEdgeProbs(g, 0.6)
	res, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 0.13, Beta: 2000}, rng)
	if err != nil {
		t.Fatal(err)
	}
	est, err := Run(res.Statuses, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.Edges() {
		if est.Probs[e] < 0.3 {
			t.Fatalf("edge %v estimated %.3f, expected clearly positive", e, est.Probs[e])
		}
	}
}

func TestRunNoParents(t *testing.T) {
	g := graph.New(2) // no edges: only leaks to estimate
	m := diffusion.NewStatusMatrix(100, 2)
	for p := 0; p < 100; p++ {
		m.Set(p, 0, p%4 == 0) // 25% base rate
	}
	est, err := Run(m, g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Probs) != 0 {
		t.Fatalf("no edges but %d probabilities", len(est.Probs))
	}
	if math.Abs(est.Leaks[0]-0.25) > 0.05 {
		t.Fatalf("leak = %.3f, want ~0.25", est.Leaks[0])
	}
	if est.Leaks[1] > 0.05 {
		t.Fatalf("never-infected node leak = %.3f, want ~0", est.Leaks[1])
	}
}

func TestRunErrors(t *testing.T) {
	g := graph.Chain(3)
	if _, err := Run(diffusion.NewStatusMatrix(5, 4), g, Options{}); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := Run(diffusion.NewStatusMatrix(0, 3), g, Options{}); err == nil {
		t.Fatal("empty observations should fail")
	}
	if _, err := Run(diffusion.NewStatusMatrix(5, 3), g, Options{Iterations: -1}); err == nil {
		t.Fatal("negative iterations should fail")
	}
}

func TestRunMinProbBounds(t *testing.T) {
	g := graph.Chain(3)
	sm := diffusion.NewStatusMatrix(8, 3)
	for p := 0; p < 8; p += 2 {
		sm.Set(p, 0, true)
		sm.Set(p, 1, true)
	}
	for _, tc := range []struct {
		minProb float64
		ok      bool
	}{
		{0, true}, // default 1e-4
		{1e-4, true},
		{0.49, true},
		{-1e-4, false},
		{0.5, false},
		{0.6, false}, // would raise every p to 0.6, then cap it at 0.4
		{math.NaN(), false},
		{math.Inf(1), false},
	} {
		_, err := Run(sm, g, Options{MinProb: tc.minProb})
		if (err == nil) != tc.ok {
			t.Errorf("MinProb %v: err = %v, want ok=%v", tc.minProb, err, tc.ok)
		}
	}
}

func TestEdgeProbsFloorBounds(t *testing.T) {
	g := graph.Chain(3)
	est := &Estimate{
		Probs: map[graph.Edge]float64{{From: 0, To: 1}: 0.9, {From: 1, To: 2}: 0},
		Leaks: make([]float64, 3),
	}
	for _, tc := range []struct {
		floor float64
		ok    bool
	}{
		{0, true}, // default 1e-4
		{-1, true},
		{0.3, true},
		{0.5, false},
		{0.7, false}, // would turn every edge into 0.3
		{math.NaN(), false},
	} {
		ep, err := est.EdgeProbs(g, tc.floor)
		if (err == nil) != tc.ok {
			t.Errorf("floor %v: err = %v, want ok=%v", tc.floor, err, tc.ok)
			continue
		}
		if err != nil {
			continue
		}
		if lo, hi := ep.Prob(1, 2), ep.Prob(0, 1); !(lo > 0 && lo < hi && hi < 1) {
			t.Errorf("floor %v: clamped probabilities %v, %v out of order", tc.floor, lo, hi)
		}
	}
}

// referenceFitNode is the per-process EM that the pattern-table fitter
// replaced, kept verbatim as the reference of TestRunMatchesPerProcessEM.
//
// fitNode maximizes the noisy-OR likelihood of one node's column given its
// parents' columns with the standard latent-variable EM: each active cause
// u (the leak is cause 0, active in every case) carries a hidden "fired"
// indicator z_u; the child is the OR of them. Conditioned on outcome 1 with
// active set A, P(z_u = 1) = p_u / (1 - prod_{w in A}(1 - p_w)); on outcome
// 0 every z_u is 0. The M-step averages the posteriors, which increases the
// likelihood monotonically with no step size to tune.
func referenceFitNode(sm *diffusion.StatusMatrix, v int, parents []int, opt Options) ([]float64, float64, int) {
	beta := sm.Beta()
	k := len(parents)
	// p[0] is the leak; p[j+1] belongs to parents[j].
	p := make([]float64, k+1)
	for j := range p {
		p[j] = 0.2
	}

	// Materialize the active-cause sets per observation once.
	type obs struct {
		active  []int // indices into p (0 = leak, j+1 = parents[j])
		outcome bool
	}
	cases := make([]obs, beta)
	activeCount := make([]int, k+1)
	for pi := 0; pi < beta; pi++ {
		active := []int{0}
		for j, u := range parents {
			if sm.Get(pi, u) {
				active = append(active, j+1)
			}
		}
		for _, j := range active {
			activeCount[j]++
		}
		cases[pi] = obs{active: active, outcome: sm.Get(pi, v)}
	}

	acc := make([]float64, k+1)
	iters := 0
	for iter := 0; iter < opt.Iterations; iter++ {
		iters++
		for j := range acc {
			acc[j] = 0
		}
		for _, c := range cases {
			if !c.outcome {
				continue // all posteriors are 0
			}
			q := 1.0
			for _, j := range c.active {
				q *= 1 - p[j]
			}
			denom := 1 - q
			if denom < 1e-12 {
				denom = 1e-12
			}
			for _, j := range c.active {
				acc[j] += p[j] / denom
			}
		}
		maxDelta := 0.0
		for j := range p {
			if activeCount[j] == 0 {
				continue
			}
			next := acc[j] / float64(activeCount[j])
			if next < opt.MinProb {
				next = opt.MinProb
			}
			if next > 1-opt.MinProb {
				next = 1 - opt.MinProb
			}
			if d := math.Abs(next - p[j]); d > maxDelta {
				maxDelta = d
			}
			p[j] = next
		}
		if maxDelta < 1e-8 {
			break
		}
	}
	probs := make([]float64, k)
	for j := 0; j < k; j++ {
		if activeCount[j+1] == 0 {
			probs[j] = 0 // parent never infected: no evidence at all
			continue
		}
		probs[j] = p[j+1]
	}
	leak := p[0]
	if leak <= opt.MinProb {
		leak = 0
	}
	return probs, leak, iters
}

// equivCase is a status matrix and topology on which RunContext must
// reproduce referenceFitNode.
type equivCase struct {
	name string
	g    *graph.Directed
	sm   *diffusion.StatusMatrix
}

// equivCases builds, at β processes, a random DAG with isolated nodes, a
// parent whose column is cleared (never infected), a child never infected,
// a child always infected and a node with 70 parents (keys of two words).
func equivCases(t *testing.T, beta int, seed int64) []equivCase {
	t.Helper()
	const n = 90
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	probs := make(map[graph.Edge]float64)
	add := func(u, v int, p float64) {
		g.AddEdge(u, v)
		probs[graph.Edge{From: u, To: v}] = p
	}
	// Nodes 0..69 form a sparse random DAG; 70..74 stay isolated.
	for u := 0; u < 70; u++ {
		for v := u + 1; v < 70; v++ {
			if rng.Float64() < 0.06 {
				add(u, v, 0.1+0.8*rng.Float64())
			}
		}
	}
	for u := 0; u < 70; u++ {
		add(u, 75, 0.02*rng.Float64()) // wide: 70 parents
	}
	for v := 76; v < n; v++ {
		for u := 0; u < v; u++ {
			if rng.Float64() < 0.05 {
				add(u, v, 0.1+0.8*rng.Float64())
			}
		}
	}
	add(80, 85, 0.5) // 80's column is cleared below
	add(3, 86, 0.5)  // 86 is never infected
	add(4, 87, 0.5)  // 87 is always infected
	sm := synthNoisyOR(t, beta, 0.15, probs, g, seed+1)
	for p := 0; p < beta; p++ {
		sm.Set(p, 80, false)
		sm.Set(p, 86, false)
		sm.Set(p, 87, true)
	}
	// The same statuses under the empty topology: every node parentless.
	return []equivCase{
		{"dag", g, sm},
		{"parentless", graph.New(n), sm},
	}
}

func TestRunMatchesPerProcessEM(t *testing.T) {
	const tol = 1e-9
	for _, beta := range []int{1, 63, 64, 65, 250, 1024} {
		for seed := int64(0); seed < 3; seed++ {
			for ci, c := range equivCases(t, beta, 10*int64(beta)+seed) {
				t.Run(fmt.Sprintf("beta=%d/seed=%d/%s", beta, seed, c.name), func(t *testing.T) {
					rec := obs.New()
					opt := Options{Workers: 1 + ci + int(seed)}
					est, err := RunContext(obs.With(context.Background(), rec), c.sm, c.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					refIters, maxDelta := 0, 0.0
					for v := 0; v < c.g.NumNodes(); v++ {
						probs, leak, iters := referenceFitNode(c.sm, v, c.g.Parents(v), opt.withDefaults())
						refIters += iters
						d := math.Abs(est.Leaks[v] - leak)
						if !(d <= tol) {
							t.Errorf("node %d: leak %v, reference %v", v, est.Leaks[v], leak)
						}
						maxDelta = max(maxDelta, d)
						for j, u := range c.g.Parents(v) {
							got := est.Probs[graph.Edge{From: u, To: v}]
							d := math.Abs(got - probs[j])
							if !(d <= tol) {
								t.Errorf("edge %d→%d: %v, reference %v", u, v, got, probs[j])
							}
							maxDelta = max(maxDelta, d)
							if c.sm.CountInfected(u) == 0 && got != 0 {
								t.Errorf("edge %d→%d: never-infected parent got %v, want exactly 0", u, v, got)
							}
						}
					}
					if got := rec.Counter("probest/em_iters").Value(); got != int64(refIters) {
						t.Errorf("probest/em_iters = %d, reference %d", got, refIters)
					}
					t.Logf("max |Δ| %.3g over %d EM iterations, %d patterns", maxDelta, refIters, rec.Counter("probest/patterns").Value())
				})
			}
		}
	}
}
