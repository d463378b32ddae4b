package core

import (
	"context"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tends/internal/diffusion"
	"tends/internal/kernel"
	"tends/internal/obs"
)

// SparseIMI is the sparse pairwise engine: instead of materializing the
// dense n(n−1)/2 triangle, it stores per-node CSR rows holding only the
// neighbors each node co-occurs with in at least one diffusion process,
// found through an inverted index over the bit-packed status columns
// (cascade → infected-node list). A pair that never co-occurs has n11 = 0,
// so its value depends only on the two marginal infected counts — a
// closed-form function of at most (β+1)² count-class pairs, kept as
// run-length "marginal runs" instead of per-pair storage.
//
// Every materialized or derived value goes through the same pairValue
// arithmetic as the dense engine, so SparseIMI.At is bit-identical to
// IMIMatrix.At for every pair, and the threshold selectors (which consume
// the shared valuePool form) return bit-identical τ. The pairwise stage
// drops from O(n²·β/64) to O(Σ_c |infected(c)|² + C²) with C count
// classes.
type SparseIMI struct {
	n, beta     int
	traditional bool
	mt          *miTable
	ones        []int32 // infected count per node

	// Symmetric CSR over co-occurring pairs: row i holds the ascending
	// neighbor list of node i with the pair values alongside.
	rowStart []int64
	nbr      []int32
	val      []float64

	// Count classes: distinct infected counts, ascending; classOf maps a
	// node to its class index.
	classVals  []int32
	classOf    []int32
	classSize  []int64
	classNodes [][]int32

	// Marginal runs: one (value, multiplicity) per unordered class pair
	// with at least one never-co-occurring node pair, in (a, b) class
	// order. marginalOf[a*C+b] (symmetric) is the run value, NaN when the
	// class pair has no zero pair; maxMarginal[a] is the largest marginal
	// value class a participates in (-Inf when none).
	marginalVals []float64
	marginalCnt  []int64
	maxMarginal  []float64

	pool    *valuePool
	coPairs int64
}

// ComputeSparseIMI builds the sparse pairwise engine from observations,
// using every CPU. It is the sparse counterpart of ComputeIMI.
func ComputeSparseIMI(sm *diffusion.StatusMatrix, traditional bool) *SparseIMI {
	s, _ := ComputeSparseIMIContext(context.Background(), sm, traditional, 0)
	return s
}

// ComputeSparseIMIContext is ComputeSparseIMI with an explicit worker count
// and cooperative cancellation (checked between node chunks). Like the
// dense engine, every row is computed independently from the same inputs,
// so the result is bit-identical for any worker count.
func ComputeSparseIMIContext(ctx context.Context, sm *diffusion.StatusMatrix, traditional bool, workers int) (*SparseIMI, error) {
	rec := obs.From(ctx)
	defer rec.StartSpan("core/imi").End()
	rowsC := rec.Counter("core/sparse/rows")
	pairsC := rec.Counter("core/sparse/pairs")
	skipC := rec.Counter("core/sparse/pairs_skipped")
	tilesC := rec.Counter("core/kernel/tiles")

	n, beta := sm.N(), sm.Beta()
	words, data := sm.Words(), sm.ColumnData()
	s := &SparseIMI{
		n: n, beta: beta, traditional: traditional,
		mt:       cachedMITable(beta),
		rowStart: make([]int64, n+1),
	}
	ones := make([]int32, n)
	for v := range ones {
		ones[v] = int32(sm.CountInfected(v))
	}
	s.setCountClasses(ones)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Inverted index: cascade → infected-node list, one counting pass and
	// one fill pass over the bit columns. Filling in ascending node order
	// leaves every cascade list sorted.
	cascCnt := make([]int64, beta)
	forEachSetBit := func(v int, f func(p int)) {
		col := data[v*words : (v+1)*words]
		for w, word := range col {
			for word != 0 {
				f(w*64 + bits.TrailingZeros64(word))
				word &= word - 1
			}
		}
	}
	for v := 0; v < n; v++ {
		forEachSetBit(v, func(p int) { cascCnt[p]++ })
	}
	cascOff := make([]int64, beta+1)
	for p := 0; p < beta; p++ {
		cascOff[p+1] = cascOff[p] + cascCnt[p]
	}
	cascNodes := make([]int32, cascOff[beta])
	cursor := append([]int64(nil), cascOff[:beta]...)
	for v := 0; v < n; v++ {
		forEachSetBit(v, func(p int) {
			cascNodes[cursor[p]] = int32(v)
			cursor[p]++
		})
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	// parallelNodes runs body(v) for every node across the workers, claiming
	// fixed-size chunks off a shared counter; each worker gets its own
	// scratch. Bodies write disjoint per-node slots, so output is identical
	// for any worker count.
	const chunk = 256
	parallelNodes := func(body func(v int, scratch *sparseScratch)) {
		nChunks := (n + chunk - 1) / chunk
		run := func(claim func() int) {
			scratch := newSparseScratch(n)
			for ctx.Err() == nil {
				c := claim()
				if c >= nChunks {
					return
				}
				hi := (c + 1) * chunk
				if hi > n {
					hi = n
				}
				for v := c * chunk; v < hi; v++ {
					body(v, scratch)
				}
			}
		}
		if workers == 1 {
			next := 0
			run(func() int { next++; return next - 1 })
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(func() int { return int(next.Add(1)) - 1 })
			}()
		}
		wg.Wait()
	}

	// Pass A: per-node co-occurrence degree, deduplicated with an epoch
	// stamp (the node id itself, unique per mark).
	deg := make([]int64, n)
	parallelNodes(func(v int, sc *sparseScratch) {
		cnt := int64(0)
		forEachSetBit(v, func(p int) {
			for _, u := range cascNodes[cascOff[p]:cascOff[p+1]] {
				if int(u) != v && sc.stamp[u] != int32(v) {
					sc.stamp[u] = int32(v)
					cnt++
				}
			}
		})
		deg[v] = cnt
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for v := 0; v < n; v++ {
		s.rowStart[v+1] = s.rowStart[v] + deg[v]
	}
	s.nbr = make([]int32, s.rowStart[n])
	s.val = make([]float64, s.rowStart[n])
	s.coPairs = s.rowStart[n] / 2

	// Pass B: fill each row (neighbors sorted ascending), compute n11 via
	// the gather kernel, derive values, and count each co-occurring pair
	// (i<j once) into the worker's class tally and value pool for the
	// marginal-run bookkeeping. Stamps use n+v so they can never collide
	// with pass A marks on a reused scratch.
	nClasses := len(s.classVals)
	tallies := make([]*classTally, workers)
	pools := make([]*poolBuilder, workers)
	var tallySlot atomic.Int64
	parallelNodes(func(v int, sc *sparseScratch) {
		if sc.tally == nil {
			sc.tally = newClassTally(nClasses)
			sc.pool = newPoolBuilder(int(s.coPairs))
			slot := int(tallySlot.Add(1)) - 1
			tallies[slot], pools[slot] = sc.tally, sc.pool
		}
		row := s.nbr[s.rowStart[v]:s.rowStart[v]]
		mark := int32(n + v)
		forEachSetBit(v, func(p int) {
			for _, u := range cascNodes[cascOff[p]:cascOff[p+1]] {
				if int(u) != v && sc.stamp[u] != mark {
					sc.stamp[u] = mark
					row = append(row, u)
				}
			}
		})
		slices.Sort(row)
		if cap(sc.n11) < len(row) {
			sc.n11 = make([]int, len(row)+64)
		}
		n11 := sc.n11[:len(row)]
		kernel.GatherAndCounts(n11, data, words, data[v*words:(v+1)*words], row)
		tilesC.Inc()
		ni := int(s.ones[v])
		base := s.rowStart[v]
		cv := s.classOf[v]
		for k, j := range row {
			val := pairValue(s.mt, traditional, beta, n11[k], ni, int(s.ones[j]))
			s.val[base+int64(k)] = val
			if int(j) > v {
				sc.tally.add(cv, s.classOf[j])
				sc.pool.add(val, 1)
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tally := newClassTally(nClasses)
	pool := newPoolBuilder(0)
	for w, t := range tallies {
		if t != nil {
			tally.merge(t)
			pool.merge(pools[w])
		}
	}
	s.finishMarginals(tally, pool)

	rowsC.Add(int64(n))
	pairsC.Add(s.coPairs)
	totalPairs := int64(n) * int64(n-1) / 2
	skipC.Add(totalPairs - s.coPairs)
	return s, nil
}

// setCountClasses records the per-node infected counts and derives the
// count classes from them: the distinct counts ascending, each node's class,
// and every class's size and members. The batch build and the incremental
// fold both call it, so their classes agree by construction.
func (s *SparseIMI) setCountClasses(ones []int32) {
	s.ones = ones
	classIdx := make([]int32, s.beta+1)
	for _, c := range ones {
		classIdx[c] = 1
	}
	for c := range classIdx {
		if classIdx[c] != 0 {
			classIdx[c] = int32(len(s.classVals) + 1)
			s.classVals = append(s.classVals, int32(c))
		}
	}
	nClasses := len(s.classVals)
	s.classOf = make([]int32, len(ones))
	s.classSize = make([]int64, nClasses)
	for v, c := range ones {
		k := classIdx[c] - 1
		s.classOf[v] = k
		s.classSize[k]++
	}
	s.classNodes = make([][]int32, nClasses)
	for k := range s.classNodes {
		s.classNodes[k] = make([]int32, 0, s.classSize[k])
	}
	for v, k := range s.classOf {
		s.classNodes[k] = append(s.classNodes[k], int32(v))
	}
}

// finishMarginals completes an engine whose CSR rows are filled: tally
// holds the co-occurring pairs per class pair and b their values, once per
// unordered pair. For every unordered class pair, the pairs that never
// co-occur share one closed-form value (n11 = 0); finishMarginals records
// those marginal runs, adds them to b and finishes the value pool. A class
// pair whose counts sum past β cannot have a zero pair (pigeonhole), and
// indeed its zero-pair multiplicity is always 0 here, so the n11 = 0 cell
// arithmetic below never sees negative counts.
func (s *SparseIMI) finishMarginals(tally *classTally, b *poolBuilder) {
	nClasses := len(s.classVals)
	s.maxMarginal = make([]float64, nClasses)
	for a := range s.maxMarginal {
		s.maxMarginal[a] = math.Inf(-1)
	}
	for a := 0; a < nClasses; a++ {
		for c := a; c < nClasses; c++ {
			var tot int64
			if a == c {
				tot = s.classSize[a] * (s.classSize[a] - 1) / 2
			} else {
				tot = s.classSize[a] * s.classSize[c]
			}
			zp := tot - tally.pairCount(a, c)
			if zp <= 0 {
				continue
			}
			mv := pairValue(s.mt, s.traditional, s.beta, 0, int(s.classVals[a]), int(s.classVals[c]))
			s.marginalVals = append(s.marginalVals, mv)
			s.marginalCnt = append(s.marginalCnt, zp)
			b.add(mv, zp)
			if mv > s.maxMarginal[a] {
				s.maxMarginal[a] = mv
			}
			if mv > s.maxMarginal[c] {
				s.maxMarginal[c] = mv
			}
		}
	}
	s.pool = b.finish()
}

// sparseScratch is the per-worker state of the build passes.
type sparseScratch struct {
	stamp []int32
	n11   []int
	tally *classTally
	pool  *poolBuilder
}

func newSparseScratch(n int) *sparseScratch {
	st := &sparseScratch{stamp: make([]int32, n)}
	for i := range st.stamp {
		st.stamp[i] = -1
	}
	return st
}

// classTally counts co-occurring pairs per (unordered) class pair. Small
// class counts use a dense C×C table; degenerate inputs with huge C fall
// back to a map.
type classTally struct {
	c     int
	dense []int64
	m     map[uint64]int64
}

func newClassTally(c int) *classTally {
	t := &classTally{c: c}
	if c*c <= 1<<22 {
		t.dense = make([]int64, c*c)
	} else {
		t.m = make(map[uint64]int64)
	}
	return t
}

func (t *classTally) add(a, b int32) {
	if t.dense != nil {
		t.dense[int(a)*t.c+int(b)]++
		return
	}
	t.m[uint64(uint32(a))<<32|uint64(uint32(b))]++
}

func (t *classTally) merge(o *classTally) {
	if t.dense != nil {
		for i, v := range o.dense {
			t.dense[i] += v
		}
		return
	}
	for k, v := range o.m {
		t.m[k] += v
	}
}

// pairCount returns the co-occurring pair count for the unordered class
// pair (a, b), summing both tally orientations.
func (t *classTally) pairCount(a, b int) int64 {
	get := func(x, y int) int64 {
		if t.dense != nil {
			return t.dense[x*t.c+y]
		}
		return t.m[uint64(uint32(x))<<32|uint64(uint32(y))]
	}
	if a == b {
		return get(a, a)
	}
	return get(a, b) + get(b, a)
}

// N returns the number of nodes.
func (s *SparseIMI) N() int { return s.n }

// CoPairs returns the number of unordered node pairs that co-occur in at
// least one diffusion process — the pairs the engine materialized.
func (s *SparseIMI) CoPairs() int64 { return s.coPairs }

// TotalPairs returns n(n−1)/2.
func (s *SparseIMI) TotalPairs() int64 { return int64(s.n) * int64(s.n-1) / 2 }

// find locates j in row i's neighbor list.
func (s *SparseIMI) find(i int, j int32) (int64, bool) {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	row := s.nbr[lo:hi]
	k := sort.Search(len(row), func(t int) bool { return row[t] >= j })
	if k < len(row) && row[k] == j {
		return lo + int64(k), true
	}
	return 0, false
}

// At returns the pairwise value for (i, j), i != j — bit-identical to the
// dense IMIMatrix.At for the same observations.
func (s *SparseIMI) At(i, j int) float64 {
	if i == j {
		panic("core: IMI is undefined for a node with itself")
	}
	if k, ok := s.find(i, int32(j)); ok {
		return s.val[k]
	}
	// Never co-occurring: closed-form marginal-only value. n11 = 0 forces
	// ones[i]+ones[j] ≤ β (otherwise the pair would co-occur), so the cell
	// counts stay non-negative.
	return pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.ones[j]))
}

// Candidates returns, for node i, every node j with value(i,j) > tau,
// ascending — the same contract as IMIMatrix.Candidates. The fast path
// (marginal values all ≤ tau, the normal IMI regime, where a
// never-co-occurring pair's value is provably ≤ 0 ≤ τ) touches only node
// i's CSR row; the general path additionally scans the count classes whose
// marginal value clears tau, which supports the traditional-MI ablation and
// negative fixed thresholds.
func (s *SparseIMI) Candidates(i int, tau float64) []int {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	count := 0
	for k := lo; k < hi; k++ {
		if s.val[k] > tau {
			count++
		}
	}
	ci := s.classOf[i]
	if s.maxMarginal[ci] <= tau {
		if count == 0 {
			return nil
		}
		out := make([]int, 0, count)
		for k := lo; k < hi; k++ {
			if s.val[k] > tau {
				out = append(out, int(s.nbr[k]))
			}
		}
		return out
	}
	// Some never-co-occurring class clears tau: collect the co-occurring
	// hits, then walk qualifying classes excluding self and row members.
	out := make([]int, 0, count)
	for k := lo; k < hi; k++ {
		if s.val[k] > tau {
			out = append(out, int(s.nbr[k]))
		}
	}
	for c := range s.classVals {
		if int(s.classVals[ci])+int(s.classVals[c]) > s.beta {
			continue // every such pair co-occurs; no marginal values exist
		}
		mv := pairValue(s.mt, s.traditional, s.beta, 0, int(s.classVals[ci]), int(s.classVals[c]))
		if mv <= tau {
			continue
		}
		for _, j := range s.classNodes[c] {
			if int(j) == i {
				continue
			}
			if _, ok := s.find(i, j); !ok {
				out = append(out, int(j))
			}
		}
	}
	sort.Ints(out)
	return out
}

func (s *SparseIMI) valuePool() *valuePool { return s.pool }

// nodePool summarizes the values involving node i for the per-node
// threshold selector: row values individually plus one marginal run per
// count class, weighted by how many of that class's nodes never co-occur
// with i. Bit-identical to the dense nodePool (same value multiset).
func (s *SparseIMI) nodePool(i int) *valuePool {
	lo, hi := s.rowStart[i], s.rowStart[i+1]
	b := newPoolBuilder(int(hi-lo) + len(s.classVals))
	perClass := make([]int64, len(s.classVals))
	for k := lo; k < hi; k++ {
		b.add(s.val[k], 1)
		perClass[s.classOf[s.nbr[k]]]++
	}
	ci := s.classOf[i]
	for c := range s.classVals {
		rem := s.classSize[c] - perClass[c]
		if c == int(ci) {
			rem--
		}
		if rem <= 0 {
			continue
		}
		// rem > 0 implies a genuine never-co-occurring pair, which implies
		// ones[i]+classVals[c] ≤ β.
		b.add(pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.classVals[c])), rem)
	}
	return b.finish()
}

// PairValues materializes the full dense triangle, row-major like
// IMIMatrix.PairValues. Compatibility/debug surface for small n: it
// allocates the O(n²) slice the sparse engine otherwise avoids.
func (s *SparseIMI) PairValues() []float64 {
	out := make([]float64, int64(s.n)*int64(s.n-1)/2)
	for i := 0; i < s.n; i++ {
		base := i * (2*s.n - i - 1) / 2
		k := s.rowStart[i]
		end := s.rowStart[i+1]
		for k < end && int(s.nbr[k]) <= i {
			k++
		}
		for j := i + 1; j < s.n; j++ {
			if k < end && int(s.nbr[k]) == j {
				out[base+j-i-1] = s.val[k]
				k++
			} else {
				out[base+j-i-1] = pairValue(s.mt, s.traditional, s.beta, 0, int(s.ones[i]), int(s.ones[j]))
			}
		}
	}
	return out
}
