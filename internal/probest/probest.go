// Package probest estimates per-edge propagation probabilities from final
// infection statuses, given a (known or inferred) topology.
//
// The paper's problem statement focuses on recovering the edge set and
// notes that "a few existing approaches have presented how to quantify the
// propagation probability for a specific edge based on observed infection
// status results" — this package supplies that missing piece so the library
// reconstructs the full weighted network.
//
// Model: a node's final status follows a noisy-OR of its parents' final
// statuses,
//
//	P(X_v = 1 | x) = 1 − (1 − λ_v) · Π_{u ∈ F_v : x_u = 1} (1 − p_{u→v})
//
// where λ_v is a leak probability absorbing exogenous infections (seeding)
// and p_{u→v} approximates the propagation probability of the edge. The
// parameters are fitted with the classic latent-variable EM for noisy-OR
// models, which increases the likelihood monotonically at every step.
//
// The noisy-OR reads the *final* statuses, so p̂ estimates the effective
// end-to-end transmission ratio rather than the per-contact probability of
// the simulator; the two agree up to the saturation of the diffusion
// process (tested in this package against simulated ground truth).
package probest

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

// Options tunes the estimator.
type Options struct {
	// Iterations caps the EM iterations; 0 means 2000. The loop stops
	// early once no parameter moves by more than 1e-8.
	Iterations int
	// MinProb floors estimated probabilities away from 0/1 for numerical
	// stability; 0 means 1e-4. It must lie in [0, 0.5): at 0.5 or above
	// the floor passes the cap 1−MinProb and every estimate collapses onto
	// it.
	MinProb float64
	// Workers bounds the goroutines fitting nodes: 0 means GOMAXPROCS, 1
	// forces serial. fitNode is deterministic (no RNG), so the estimate is
	// identical at any worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Iterations == 0 {
		o.Iterations = 2000
	}
	if o.MinProb == 0 {
		o.MinProb = 1e-4
	}
	return o
}

// Estimate fits propagation probabilities for every edge of the topology
// from the observations. The returned map has one entry per directed edge;
// Leaks reports the per-node leak probabilities λ_v.
type Estimate struct {
	Probs map[graph.Edge]float64
	Leaks []float64
}

// Run estimates the edge probabilities of topology g from the status
// matrix.
func Run(sm *diffusion.StatusMatrix, g *graph.Directed, opt Options) (*Estimate, error) {
	return RunContext(context.Background(), sm, g, opt)
}

// RunContext is Run with cancellation and observability: node fits run on a
// bounded worker pool (Options.Workers), the context aborts remaining nodes,
// and the context's obs recorder receives the probest/nodes,
// probest/em_iters and probest/patterns counters (patterns: the distinct
// parent patterns of the EM tables, summed over nodes). fitNode is
// deterministic, so the estimate is byte-identical at any worker count.
func RunContext(ctx context.Context, sm *diffusion.StatusMatrix, g *graph.Directed, opt Options) (*Estimate, error) {
	if err := checkFloor("MinProb", opt.MinProb); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	n := g.NumNodes()
	if sm.N() != n {
		return nil, fmt.Errorf("probest: %d observation columns but %d nodes", sm.N(), n)
	}
	if sm.Beta() == 0 {
		return nil, fmt.Errorf("probest: no observations")
	}
	if opt.Iterations < 0 {
		return nil, fmt.Errorf("probest: negative Iterations")
	}
	est := &Estimate{
		Probs: make(map[graph.Edge]float64, g.NumEdges()),
		Leaks: make([]float64, n),
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	infected := make([]int, n)
	// Node v's parent probabilities land in probs[off[v]:off[v+1]] (the
	// Probs map is not safe for concurrent writes); merged serially below.
	off := make([]int, n+1)
	for v := 0; v < n; v++ {
		infected[v] = sm.CountInfected(v)
		off[v+1] = off[v] + len(g.Parents(v))
	}
	probs := make([]float64, off[n])
	var emIters, patterns atomic.Int64
	var nextNode atomic.Int64
	fitRange := func() {
		var f fitter
		for ctx.Err() == nil {
			v := int(nextNode.Add(1)) - 1
			if v >= n {
				return
			}
			leak, iters, pats := f.fitNode(sm, v, g.Parents(v), infected, opt, probs[off[v]:off[v+1]])
			est.Leaks[v] = leak
			emIters.Add(int64(iters))
			patterns.Add(int64(pats))
		}
	}
	if workers <= 1 {
		fitRange()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() { defer wg.Done(); fitRange() }()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		for i, u := range g.Parents(v) {
			est.Probs[graph.Edge{From: u, To: v}] = probs[off[v]+i]
		}
	}
	rcd := obs.From(ctx)
	rcd.Counter("probest/nodes").Add(int64(n))
	rcd.Counter("probest/em_iters").Add(emIters.Load())
	rcd.Counter("probest/patterns").Add(patterns.Load())
	return est, nil
}

// checkFloor rejects a probability floor outside [0, 0.5), NaN included.
func checkFloor(name string, floor float64) error {
	if !(floor >= 0 && floor < 0.5) {
		return fmt.Errorf("probest: %s %v outside [0, 0.5)", name, floor)
	}
	return nil
}

// EdgeProbs converts the estimate into the simulator's CSR layout for the
// influence stage, clamping probabilities into (0,1): probest emits exact 0
// for edges whose parent was never infected (no evidence), which the CSR
// constructor rejects. Such edges get floor — effectively inert in cascade
// simulation — and everything ≥ 1−floor is capped symmetrically. floor ≤ 0
// means 1e-4; a floor of 0.5 or above, or NaN, is an error.
func (e *Estimate) EdgeProbs(g *graph.Directed, floor float64) (*diffusion.EdgeProbs, error) {
	if floor <= 0 {
		floor = 1e-4
	}
	if err := checkFloor("floor", floor); err != nil {
		return nil, err
	}
	clamped := make(map[graph.Edge]float64, len(e.Probs))
	for edge, p := range e.Probs {
		if p < floor {
			p = floor
		}
		if p > 1-floor {
			p = 1 - floor
		}
		clamped[edge] = p
	}
	return diffusion.EdgeProbsFromMap(g, clamped)
}

// fitter holds one worker's scratch buffers, reused across the nodes it
// fits so that a node allocates nothing beyond its output.
type fitter struct {
	block  []uint64  // parent keys of the 64 rows of one column word, stride kw
	keys   []uint64  // parent key of every infected row, stride kw
	order  []int32   // indices into keys, one per infected row, sorted by key
	start  []int32   // pattern t's causes are active[start[t]:start[t+1]]
	active []int32   // causes of each pattern: 0 = leak, j+1 = parents[j]
	count  []float64 // infected rows per pattern
	p, acc []float64
}

// buildTable groups the rows where v is infected by their pattern, the set
// of v's parents infected in the row, and fills f.start, f.active and
// f.count with one entry per distinct pattern. Rows where v is uninfected
// are left out: they contribute nothing to the E-step. A key has one bit
// per parent across kw = ⌈k/64⌉ words, so every parent-set size, none
// included, takes the same path.
func (f *fitter) buildTable(sm *diffusion.StatusMatrix, v int, parents []int) {
	kw := (len(parents) + 63) / 64
	f.block = slices.Grow(f.block[:0], 64*kw)[:64*kw]
	f.keys = f.keys[:0]
	f.order = f.order[:0]
	for w, c := range sm.Column(v) {
		if c == 0 {
			continue
		}
		clear(f.block)
		for j, u := range parents {
			for b := sm.Column(u)[w] & c; b != 0; b &= b - 1 {
				f.block[bits.TrailingZeros64(b)*kw+j/64] |= 1 << (j % 64)
			}
		}
		for b := c; b != 0; b &= b - 1 {
			r := bits.TrailingZeros64(b)
			f.order = append(f.order, int32(len(f.order)))
			f.keys = append(f.keys, f.block[r*kw:(r+1)*kw]...)
		}
	}
	key := func(i int32) []uint64 { return f.keys[int(i)*kw : int(i+1)*kw] }
	slices.SortFunc(f.order, func(a, b int32) int { return slices.Compare(key(a), key(b)) })

	f.start = append(f.start[:0], 0)
	f.active = f.active[:0]
	f.count = f.count[:0]
	for lo := 0; lo < len(f.order); {
		k := key(f.order[lo])
		hi := lo + 1
		for hi < len(f.order) && slices.Equal(key(f.order[hi]), k) {
			hi++
		}
		f.active = append(f.active, 0)
		for w, word := range k {
			for ; word != 0; word &= word - 1 {
				f.active = append(f.active, int32(w*64+bits.TrailingZeros64(word)+1))
			}
		}
		f.start = append(f.start, int32(len(f.active)))
		f.count = append(f.count, float64(hi-lo))
		lo = hi
	}
}

// fitNode maximizes the noisy-OR likelihood of one node's column given its
// parents' columns with the standard latent-variable EM: each active cause
// u (the leak is cause 0, active in every case) carries a hidden "fired"
// indicator z_u; the child is the OR of them. Conditioned on outcome 1 with
// active set A, P(z_u = 1) = p_u / (1 - prod_{w in A}(1 - p_w)); on outcome
// 0 every z_u is 0. The M-step averages the posteriors, which increases the
// likelihood monotonically with no step size to tune.
//
// A row's posteriors depend only on its pattern, so each iteration runs
// over the node's pattern table with the pattern counts as weights, and
// the M-step divides by column totals: β for the leak and each parent's
// infection count (infected, indexed by node). fitNode writes one
// probability per parent into probs and returns the leak, the number of EM
// iterations and the number of patterns.
func (f *fitter) fitNode(sm *diffusion.StatusMatrix, v int, parents, infected []int, opt Options, probs []float64) (float64, int, int) {
	f.buildTable(sm, v, parents)
	k := len(parents)
	// p[0] is the leak; p[j+1] belongs to parents[j].
	f.p = slices.Grow(f.p[:0], k+1)[:k+1]
	f.acc = slices.Grow(f.acc[:0], k+1)[:k+1]
	p, acc := f.p, f.acc
	for j := range p {
		p[j] = 0.2
	}
	activeCount := func(j int) int {
		if j == 0 {
			return sm.Beta()
		}
		return infected[parents[j-1]]
	}

	// acc[j] sums count/(1−q) over the patterns where cause j is active,
	// so p[j]·acc[j] is the posterior mass of z_j.
	iters := 0
	for iter := 0; iter < opt.Iterations; iter++ {
		iters++
		clear(acc)
		for t, c := range f.count {
			causes := f.active[f.start[t]:f.start[t+1]]
			q := 1.0
			for _, j := range causes {
				q *= 1 - p[j]
			}
			denom := 1 - q
			if denom < 1e-12 {
				denom = 1e-12
			}
			w := c / denom
			for _, j := range causes {
				acc[j] += w
			}
		}
		maxDelta := 0.0
		for j := range p {
			n := activeCount(j)
			if n == 0 {
				continue
			}
			next := p[j] * acc[j] / float64(n)
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
	for j := range probs {
		if activeCount(j+1) == 0 {
			probs[j] = 0 // parent never infected: no evidence at all
			continue
		}
		probs[j] = p[j+1]
	}
	leak := p[0]
	if leak <= opt.MinProb {
		leak = 0
	}
	return leak, iters, len(f.count)
}
