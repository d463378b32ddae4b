package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"tends/internal/core"
	"tends/internal/datasets"
	"tends/internal/diffusion"
	"tends/internal/experiments"
	"tends/internal/graph"
	"tends/internal/influence"
	"tends/internal/lfr"
	"tends/internal/metrics"
	"tends/internal/probest"
)

// batchMinPasses is the fewest measured passes of an untraced batch run.
const batchMinPasses = 2

// spreadSamples is the Monte-Carlo sample count of the spread evaluation
// behind spread_ratio, as in the Fig. 16 harness.
const spreadSamples = 1000

// Seed-stream tags of the per-cell derived seeds.
const (
	tagRIS    = 0x5249_5301
	tagSpread = 0x5350_5201
)

// cell is one batch inference problem: a ground-truth weighted network and
// the final statuses simulated on it. When the statuses are relabeled,
// toBase maps each of their node ids to the id in truth and ep.
type cell struct {
	truth  *graph.Directed
	ep     *diffusion.EdgeProbs
	sm     *diffusion.StatusMatrix
	toBase []int
	seed   int64
}

// base maps a node id of c.sm to the id of the same node in c.truth.
func (c *cell) base(v int) int {
	if c.toBase == nil {
		return v
	}
	return c.toBase[v]
}

// engine is the side of the dense-vs-sparse IMI choice a batch workload
// measures.
type engine int

const (
	// denseCells are independent cells on the dense engine, each also
	// inferred at Workers=1.
	denseCells engine = iota
	// sparseScale is one scale instance, relabeled by the workload seed, on
	// the sparse engine.
	sparseScale
)

func (e engine) sparse() bool { return e == sparseScale }

// batchSpec describes a batch workload: its inputs, its engine and its seed
// budget.
type batchSpec struct {
	build  func(ctx context.Context, led *ledger) ([]*cell, error)
	engine engine
	k      int
}

// paperBetas is the Figs. 8–9 sweep of the number of diffusion processes.
var paperBetas = []int{50, 100, 150, 200, 250}

// paperDatasets are the stand-ins for the paper's two real networks.
var paperDatasets = []func(seed int64) (*graph.Directed, error){datasets.NetSci, datasets.DUNF}

// runPaperPipeline runs the paper's own regime: both real-network stand-ins
// at the §V defaults, the β sweep of Figs. 8–9, and three workload seeds
// derived from --seed, 30 cells in sequence on the dense engine.
func runPaperPipeline(ctx context.Context, a args) (*outcome, error) {
	build := func(ctx context.Context, led *ledger) ([]*cell, error) {
		var cells []*cell
		for j := int64(0); j < 3; j++ {
			w := a.seed*3 + j
			for d, gen := range paperDatasets {
				var g *graph.Directed
				if _, err := led.time("lfr.generate", func() (err error) {
					g, err = gen(subSeed(w, int64(d)))
					return err
				}); err != nil {
					return nil, err
				}
				for _, beta := range paperBetas {
					cs := subSeed(w, int64(d), int64(beta))
					c, err := simulateCell(ctx, led, g, rand.New(rand.NewSource(cs)),
						experiments.DefaultMu, experiments.DefaultAlpha, beta, cs)
					if err != nil {
						return nil, err
					}
					cells = append(cells, c)
				}
			}
		}
		return cells, nil
	}
	return runBatch(ctx, a, batchSpec{build: build, engine: denseCells, k: 20})
}

// scaleBaseSeed is the ScaleConfig seed of the instance the scale and
// stream workloads relabel: the repository's default scale seed, at which
// n=10⁴, β=1024 gives the ROADMAP's row (τ 0.0103, F 0.291). Independent
// instances differ too much in search cost for a gate; see README.md.
const scaleBaseSeed = 1

// scaleK is the seed budget of the scale workloads.
const scaleK = 50

// runScale runs the scale LFR workload (experiments.ScaleConfig defaults) at
// n nodes and β=1024 on the sparse engine.
func runScale(ctx context.Context, a args, n int) (*outcome, error) {
	build := func(ctx context.Context, led *ledger) ([]*cell, error) {
		c, err := scaleCell(ctx, led, n, 1024)
		if err != nil {
			return nil, err
		}
		return []*cell{c}, nil
	}
	return runBatch(ctx, a, batchSpec{build: build, engine: sparseScale, k: scaleK})
}

// scaleCell builds the instance experiments.BuildScaleWorkload builds with
// ScaleConfig defaults and scaleBaseSeed, calling lfr and diffusion
// separately so that each is timed, and keeping the true edge probabilities
// that function drops.
func scaleCell(ctx context.Context, led *ledger, n, beta int) (*cell, error) {
	rng := rand.New(rand.NewSource(scaleBaseSeed))
	var net *lfr.Result
	if _, err := led.time("lfr.generate", func() (err error) {
		net, err = lfr.Generate(lfr.Params{N: n, AvgDegree: 10, DegreeExp: 2}, rng)
		return err
	}); err != nil {
		return nil, err
	}
	return simulateCell(ctx, led, net.Graph, rng, 0.08, 10/float64(n), beta, scaleBaseSeed)
}

// relabel returns c with its statuses relabeled: node ids permuted and
// observation rows reordered by permutations drawn from seed, which also
// seeds the cell's RIS and Monte-Carlo streams. Every pairwise value, τ and
// the amount of work are those of c; node order, memory layout and
// scheduling are not. The truth keeps its ids; checks map through toBase.
func relabel(c *cell, seed int64) *cell {
	rng := rand.New(rand.NewSource(seed))
	n, beta := c.sm.N(), c.sm.Beta()
	node, row := rng.Perm(n), rng.Perm(beta)
	sm := diffusion.NewStatusMatrix(beta, n)
	toBase := make([]int, n)
	for v := 0; v < n; v++ {
		toBase[node[v]] = v
		for w, word := range c.sm.Column(v) {
			for ; word != 0; word &= word - 1 {
				sm.Set(row[w*64+bits.TrailingZeros64(word)], node[v], true)
			}
		}
	}
	return &cell{truth: c.truth, ep: c.ep, sm: sm, toBase: toBase, seed: seed}
}

// simulateCell draws edge probabilities around mean mu and simulates beta
// independent cascades seeded at rate alpha.
func simulateCell(ctx context.Context, led *ledger, g *graph.Directed, rng *rand.Rand, mu, alpha float64, beta int, seed int64) (*cell, error) {
	c := &cell{truth: g, seed: seed}
	_, err := led.time("diffusion.simulate", func() error {
		c.ep = diffusion.NewEdgeProbs(g, mu, 0.05, rng)
		sim, err := diffusion.SimulateContext(led.ctx(ctx), c.ep, diffusion.Config{Alpha: alpha, Beta: beta}, rng)
		if err != nil {
			return err
		}
		c.sm = sim.Statuses
		return nil
	})
	return c, err
}

// buildInputs builds the workload as repeatSetup says and returns the last
// build, the median build time, and the ledger of the last build.
func buildInputs[T any](ctx context.Context, traced bool, build func(context.Context, *ledger) (T, error)) (T, float64, *ledger, error) {
	var in T
	var led *ledger
	setupS, err := repeatSetup(func() (time.Duration, error) {
		var zero T
		in = zero
		runtime.GC()
		led = newLedger(traced)
		start := time.Now()
		var err error
		in, err = build(ctx, led)
		return time.Since(start), err
	})
	return in, setupS, led, err
}

// cellResult is what one cell's pipeline produced; quality is filled only on
// passes that run the full checks.
type cellResult struct {
	parents [][]int
	seeds   []int
	quality stageQuality
}

// stageQuality locates where true edges are lost: pruning keeps
// candRecall of them, the search keeps keptRecall of the survivors.
type stageQuality struct {
	tau, candPerNode, candRecall, keptRecall float64
	precision, recall, f, spreadRatio        float64
}

// passTotals are one pass's end-to-end sums over its cells, and the
// largest peak RSS of a cell's timed region.
type passTotals struct {
	infer, pipeline, cpu, rss float64
}

func runBatch(ctx context.Context, a args, spec batchSpec) (*outcome, error) {
	cells, setupS, setupLed, err := buildInputs(ctx, a.trace, spec.build)
	if err != nil {
		return nil, err
	}
	if spec.engine == sparseScale {
		for i, c := range cells {
			cells[i] = relabel(c, a.seed)
		}
	}
	out := &outcome{metrics: make(map[string]float64)}
	refs := make([]*cellResult, len(cells))
	var passes []passTotals
	start := time.Now()
	for len(passes) == 0 || a.morePasses(len(passes), batchMinPasses, start) {
		passes = append(passes, runBatchPass(ctx, spec, cells, refs, newLedger(false), out))
	}
	var quality []stageQuality
	for _, r := range refs {
		if r != nil {
			quality = append(quality, r.quality)
		}
	}
	if len(quality) != len(cells) {
		out.fail("%d of %d cells produced no result", len(cells)-len(quality), len(cells))
	}
	q := meanQuality(quality)
	m := out.metrics
	if !a.trace {
		m["setup_s"] = setupS
		m["infer_s"] = median(pick(passes, func(p passTotals) float64 { return p.infer }))
		m["pipeline_s"] = median(pick(passes, func(p passTotals) float64 { return p.pipeline }))
		m["cpu_s"] = median(pick(passes, func(p passTotals) float64 { return p.cpu }))
		m["peak_rss_mb"] = median(pick(passes, func(p passTotals) float64 { return p.rss }))
		m["f_score"] = q.f
		m["spread_ratio"] = q.spreadRatio
		return out, nil
	}

	led := newLedger(true)
	gc0 := readGC()
	traced := runBatchPass(ctx, spec, cells, refs, led, out)
	putRuntime(m, gc0, readGC())
	m["trace.overhead_s"] = traced.pipeline - passes[0].pipeline
	putSetupLayers(m, setupLed)
	putCoreLayers(m, led, q)
	if spec.engine == denseCells {
		m["core.parallel_speedup"] = led.seconds("core.infer.workers1") / led.seconds("core.infer")
	}
	putDownstreamLayers(m, led)
	return out, nil
}

// runBatchPass runs every cell's timed pipeline once. The first pass, and a
// traced pass, run the full output checks and record each cell's result;
// other passes check that the outputs repeat exactly.
func runBatchPass(ctx context.Context, spec batchSpec, cells []*cell, refs []*cellResult, led *ledger, out *outcome) passTotals {
	var t passTotals
	for i, c := range cells {
		out.attempted++
		full := refs[i] == nil || led.traced
		res, err := runCell(ctx, spec, c, led, &t, full, out)
		if err != nil {
			out.fail("cell %d: %v", i, err)
			continue
		}
		if refs[i] == nil {
			refs[i] = res
			continue
		}
		if !slices.EqualFunc(res.parents, refs[i].parents, slices.Equal) || !slices.Equal(res.seeds, refs[i].seeds) {
			out.fail("cell %d: output differs between passes", i)
		}
	}
	return t
}

// runCell times infer → probest → RIS on one cell, the work a
// `reconstruct -k` user waits for, then checks the outputs outside the
// timed region.
func runCell(ctx context.Context, spec batchSpec, c *cell, led *ledger, t *passTotals, full bool, out *outcome) (*cellResult, error) {
	tctx := led.ctx(ctx)
	if err := settle(); err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	var res *core.Result
	inferD, err := led.time("core.infer", func() (err error) {
		res, err = core.InferContext(tctx, c.sm, core.Options{Sparse: spec.engine.sparse()})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("infer: %w", err)
	}
	est, sel, tailD, err := downstream(tctx, led, c.sm, res.Graph, spec.k, c.seed)
	if err != nil {
		return nil, err
	}
	t.cpu += cpuSeconds() - cpu0
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	t.rss = max(t.rss, rss)
	t.infer += inferD.Seconds()
	t.pipeline += (inferD + tailD).Seconds()

	r := &cellResult{parents: res.Parents, seeds: sel.Seeds}
	if got := core.NewScorer(c.sm).TotalScore(res.Parents); got != res.Score {
		out.fail("Result.Score %v != Scorer.TotalScore %v", res.Score, got)
	}
	if spec.engine == denseCells {
		var serial *core.Result
		if _, err := led.time("core.infer.workers1", func() (err error) {
			serial, err = core.InferContext(ctx, c.sm, core.Options{Sparse: spec.engine.sparse(), Workers: 1})
			return err
		}); err != nil {
			return nil, fmt.Errorf("serial infer: %w", err)
		}
		if !slices.EqualFunc(serial.Parents, res.Parents, slices.Equal) {
			out.fail("parents differ between Workers=1 and Workers=%d", runtime.GOMAXPROCS(0))
		}
	}
	if !full {
		return r, nil
	}
	checkProbest(est, res.Graph, out)
	checkSeeds(sel, spec.k, c.truth.NumNodes(), out)
	src, err := pairSource(ctx, c.sm, spec.engine.sparse())
	if err != nil {
		return nil, err
	}
	r.quality = measureQuality(c, res, src, out)
	r.quality.spreadRatio, err = spreadRatio(ctx, led, c, sel.Seeds, spec.k, out)
	return r, err
}

// downstream fits edge probabilities on the inferred topology and picks k
// seeds on the result: the probest and influence layers of the pipeline.
func downstream(ctx context.Context, led *ledger, sm *diffusion.StatusMatrix, g *graph.Directed, k int, seed int64) (*probest.Estimate, *influence.RISResult, time.Duration, error) {
	var est *probest.Estimate
	var ep *diffusion.EdgeProbs
	fitD, err := led.time("probest.fit", func() (err error) {
		if est, err = probest.RunContext(ctx, sm, g, probest.Options{}); err != nil {
			return err
		}
		ep, err = est.EdgeProbs(g, 0)
		return err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("probest: %w", err)
	}
	var sel *influence.RISResult
	risD, err := led.time("influence.ris", func() (err error) {
		sel, err = influence.RISSeeds(ctx, ep, influence.RISOptions{K: k, Seed: subSeed(seed, tagRIS)})
		return err
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("ris: %w", err)
	}
	return est, sel, fitD + risD, nil
}

// candidateSource is the read surface of both IMI engines the checks use.
type candidateSource interface {
	Candidates(i int, tau float64) []int
}

// pairSource recomputes the pairwise stage through its public entry point,
// outside the timed region, for the candidate checks.
func pairSource(ctx context.Context, sm *diffusion.StatusMatrix, sparse bool) (candidateSource, error) {
	if sparse {
		s, err := core.ComputeSparseIMIContext(ctx, sm, false, 0)
		if err != nil {
			return nil, fmt.Errorf("sparse IMI: %w", err)
		}
		return s, nil
	}
	m, err := core.ComputeIMIContext(ctx, sm, false, 0)
	if err != nil {
		return nil, fmt.Errorf("dense IMI: %w", err)
	}
	return m, nil
}

// measureQuality checks that every inferred parent of c survived pruning at
// the selected τ, and measures how many true edges each stage keeps.
func measureQuality(c *cell, res *core.Result, src candidateSource, out *outcome) stageQuality {
	truth := c.truth
	n := truth.NumNodes()
	isTrue := func(u, v int) bool { return truth.HasEdge(c.base(u), c.base(v)) }
	inferredBase := graph.New(n)
	var cands, survived, kept, inferred int
	for i := 0; i < n; i++ {
		cs := src.Candidates(i, res.Threshold)
		slices.Sort(cs)
		cands += len(cs)
		for _, u := range cs {
			if isTrue(u, i) {
				survived++
			}
		}
		for _, p := range res.Parents[i] {
			inferred++
			inferredBase.AddEdge(c.base(p), c.base(i))
			if _, ok := slices.BinarySearch(cs, p); !ok {
				out.fail("parent %d of node %d is not a candidate at tau %v", p, i, res.Threshold)
			}
			if isTrue(p, i) {
				kept++
			}
		}
	}
	prf := metrics.Score(truth, inferredBase)
	q := stageQuality{
		tau:         res.Threshold,
		candPerNode: float64(cands) / float64(n),
		candRecall:  ratio(survived, truth.NumEdges()),
		keptRecall:  ratio(kept, survived),
		precision:   ratio(kept, inferred),
		recall:      ratio(kept, truth.NumEdges()),
		f:           prf.F,
	}
	if q.precision != prf.Precision || q.recall != prf.Recall {
		out.fail("stage counts give P=%v R=%v, metrics.Score gives P=%v R=%v", q.precision, q.recall, prf.Precision, prf.Recall)
	}
	return q
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkProbest requires one probability in (0,1) per inferred edge.
func checkProbest(est *probest.Estimate, g *graph.Directed, out *outcome) {
	if len(est.Probs) != g.NumEdges() {
		out.fail("probest returned %d probabilities for %d edges", len(est.Probs), g.NumEdges())
	}
	for _, e := range g.Edges() {
		if p, ok := est.Probs[e]; !ok || !(p > 0 && p < 1) {
			out.fail("probest probability of %v is %v (present %v)", e, p, ok)
		}
	}
}

// checkSeeds requires min(k, n) distinct seeds whose estimated spreads never
// decrease.
func checkSeeds(sel *influence.RISResult, k, n int, out *outcome) {
	want := min(k, n)
	if len(sel.Seeds) != want || len(sel.Spreads) != want {
		out.fail("RIS returned %d seeds and %d spreads, want %d", len(sel.Seeds), len(sel.Spreads), want)
		return
	}
	seen := make(map[int]bool, want)
	for i, s := range sel.Seeds {
		if seen[s] || s < 0 || s >= n {
			out.fail("RIS seed %d is repeated or out of range", s)
		}
		seen[s] = true
		if i > 0 && sel.Spreads[i] < sel.Spreads[i-1] {
			out.fail("RIS spread decreases at pick %d: %v < %v", i, sel.Spreads[i], sel.Spreads[i-1])
		}
	}
}

// spreadRatio is Fig. 16's measure: the spread, on the true network, of the
// seeds picked on the reconstruction over that of seeds picked on the truth.
// Both sets face the same Monte-Carlo streams.
func spreadRatio(ctx context.Context, led *ledger, c *cell, reconSeeds []int, k int, out *outcome) (float64, error) {
	trueSel, err := influence.RISSeeds(ctx, c.ep, influence.RISOptions{K: k, Seed: subSeed(c.seed, tagRIS)})
	if err != nil {
		return 0, fmt.Errorf("ris on truth: %w", err)
	}
	checkSeeds(trueSel, k, c.truth.NumNodes(), out)
	baseSeeds := make([]int, len(reconSeeds))
	for i, s := range reconSeeds {
		baseSeeds[i] = c.base(s)
	}
	opt := influence.SpreadOptions{Samples: spreadSamples, Seed: subSeed(c.seed, tagSpread)}
	var recon, truth float64
	if _, err := led.time("influence.spread", func() (err error) {
		if recon, err = influence.SpreadEst(ctx, c.ep, baseSeeds, opt); err != nil {
			return err
		}
		truth, err = influence.SpreadEst(ctx, c.ep, trueSel.Seeds, opt)
		return err
	}); err != nil {
		return 0, fmt.Errorf("spread: %w", err)
	}
	if truth <= 0 {
		return 0, fmt.Errorf("seeds picked on the truth have spread %v", truth)
	}
	return recon / truth, nil
}

func meanQuality(qs []stageQuality) stageQuality {
	f := func(get func(stageQuality) float64) float64 { return mean(pick(qs, get)) }
	return stageQuality{
		tau:         f(func(q stageQuality) float64 { return q.tau }),
		candPerNode: f(func(q stageQuality) float64 { return q.candPerNode }),
		candRecall:  f(func(q stageQuality) float64 { return q.candRecall }),
		keptRecall:  f(func(q stageQuality) float64 { return q.keptRecall }),
		precision:   f(func(q stageQuality) float64 { return q.precision }),
		recall:      f(func(q stageQuality) float64 { return q.recall }),
		f:           f(func(q stageQuality) float64 { return q.f }),
		spreadRatio: f(func(q stageQuality) float64 { return q.spreadRatio }),
	}
}

func pick[T any](xs []T, get func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = get(x)
	}
	return out
}

// putDownstreamLayers copies the probest and influence layers' numbers.
func putDownstreamLayers(m map[string]float64, led *ledger) {
	m["probest.fit_s"] = led.seconds("probest.fit")
	m["probest.em_iters"] = led.obsCount("probest/em_iters")
	m["influence.ris_s"] = led.seconds("influence.ris")
	m["influence.sketches"] = led.obsCount("influence/sketches")
	evals, skipped := led.obsCount("influence/coverage_evals"), led.obsCount("influence/lazy_skipped")
	if evals+skipped > 0 {
		m["influence.lazy_skip_ratio"] = skipped / (evals + skipped)
	}
	m["influence.spread_s"] = led.seconds("influence.spread")
}

// putSetupLayers copies the set-up layers' times from the last build.
func putSetupLayers(m map[string]float64, led *ledger) {
	m["lfr.generate_s"] = led.seconds("lfr.generate")
	m["diffusion.simulate_s"] = led.seconds("diffusion.simulate")
	m["diffusion.infections"] = led.obsCount("diffusion/infections")
}

// putCoreLayers copies the pairwise/threshold/search split the program's own
// spans record inside core.InferContext, the benchmark's allocation deltas
// around it, and the per-stage quality.
func putCoreLayers(m map[string]float64, led *ledger, q stageQuality) {
	m["core.pairwise_s"] = led.obsSeconds("core/imi")
	pairs := led.obsCount("core/imi/pairs") + led.obsCount("core/sparse/pairs")
	skipped := led.obsCount("core/sparse/pairs_skipped")
	m["core.pairwise.pairs"] = pairs
	if pairs+skipped > 0 {
		m["core.pairwise.skipped_ratio"] = skipped / (pairs + skipped)
	}
	m["core.threshold_s"] = led.obsSeconds("core/threshold")
	m["core.search_s"] = led.obsSeconds("core/search")
	combos := led.obsCount("core/search/combos")
	m["core.search.combos"] = combos
	m["core.search.merges"] = led.obsCount("core/search/merges")
	if combos > 0 {
		m["core.search.us_per_combo"] = m["core.search_s"] * 1e6 / combos
	}
	if s := led.spans["core.infer"]; s != nil {
		m["core.infer.alloc_mb"] = float64(s.allocBytes) / (1 << 20)
		m["core.infer.allocs"] = float64(s.mallocs)
	}
	m["core.threshold.tau"] = q.tau
	m["core.threshold.candidates_per_node"] = q.candPerNode
	m["core.threshold.candidate_recall"] = q.candRecall
	m["core.search.kept_recall"] = q.keptRecall
	m["core.search.precision"] = q.precision
	m["core.search.recall"] = q.recall
}
