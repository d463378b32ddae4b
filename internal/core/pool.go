package core

import (
	"cmp"
	"math"
	"slices"

	"tends/internal/stats"
)

// valuePool is a run-length-encoded summary of the n(n−1)/2 pairwise values
// — everything the threshold selectors consume. Only the strictly positive
// values are materialized (as ascending distinct runs with multiplicities):
// zeros can never sit above a two-means boundary and break the FDR walk, so
// both selectors need only their count. Negative values contribute to total
// and maxAll alone.
//
// Both the dense and sparse engines reduce to this same canonical form, so
// thresholds — and therefore candidate sets and inferred topologies — are
// bit-identical between the two paths by construction.
type valuePool struct {
	pos    []float64 // ascending, distinct, strictly positive values
	posCnt []int64   // parallel multiplicities
	zeros  int64     // pairs whose value is exactly 0
	total  int64     // all pairs, including negative-valued ones
	maxAll float64   // maximum value over all pairs (any sign); valid when total > 0
}

// poolBuilder counts (value, multiplicity) contributions in any order. Each
// strictly positive value is counted under its float64 bit pattern in an
// open-addressing table, so the cost is one probe per contribution plus a
// sort of the D distinct values at finish — the engines emit millions of
// pair values that collapse to a few thousand distinct ones. Positive floats
// order like their bit patterns, so finish sorts the keys as integers.
// Builders filled by different workers merge; the finished pool depends
// only on the value multiset, not on arrival or merge order.
type poolBuilder struct {
	slots  []poolSlot // power-of-two table; key 0 marks an empty slot
	used   int        // occupied slots
	shift  uint       // 64 − log₂(len(slots)), for Fibonacci hashing
	zeros  int64
	total  int64
	maxAll float64
}

// poolSlot is one distinct positive value: its bit pattern (never 0, since
// +0 is counted in zeros) and its multiplicity.
type poolSlot struct {
	key uint64
	cnt int64
}

// poolInitialMax caps a builder's initial table at 4096 distinct values
// (128 KiB of slots); larger pools grow by doubling.
const poolInitialMax = 1 << 12

// newPoolBuilder returns a builder sized for hint distinct positive values,
// capped at poolInitialMax. Callers pass the number of values they will
// add, an upper bound on the distinct count, so small inputs never grow.
func newPoolBuilder(hint int) *poolBuilder {
	b := &poolBuilder{}
	b.resize(max(16, 2*min(hint, poolInitialMax)))
	return b
}

// resize rehashes into a table of at least size slots, rounded up to a
// power of two. count keeps the load at most three quarters.
func (b *poolBuilder) resize(size int) {
	log := uint(1)
	for 1<<log < size {
		log++
	}
	old := b.slots
	b.slots = make([]poolSlot, 1<<log)
	b.shift = 64 - log
	b.used = 0
	for _, s := range old {
		if s.key != 0 {
			b.count(s.key, s.cnt)
		}
	}
}

// count adds c to the multiplicity of the positive value with bit pattern key.
func (b *poolBuilder) count(key uint64, c int64) {
	mask := uint64(len(b.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> b.shift; ; i = (i + 1) & mask {
		s := &b.slots[i]
		if s.key == key {
			s.cnt += c
			return
		}
		if s.key == 0 {
			if 4*(b.used+1) > 3*len(b.slots) {
				b.resize(2 * len(b.slots))
				b.count(key, c)
				return
			}
			s.key, s.cnt = key, c
			b.used++
			return
		}
	}
}

func (b *poolBuilder) add(v float64, c int64) {
	if c <= 0 {
		return
	}
	switch {
	case v > 0:
		b.count(math.Float64bits(v), c)
	case v == 0:
		v = 0 // −0 counts as +0, so maxAll does not depend on arrival order
		b.zeros += c
	}
	if b.total == 0 || v > b.maxAll {
		b.maxAll = v
	}
	b.total += c
}

// merge folds o's counts into b.
func (b *poolBuilder) merge(o *poolBuilder) {
	if o.total == 0 {
		return
	}
	if b.total == 0 || o.maxAll > b.maxAll {
		b.maxAll = o.maxAll
	}
	b.total += o.total
	b.zeros += o.zeros
	for _, s := range o.slots {
		if s.key != 0 {
			b.count(s.key, s.cnt)
		}
	}
}

// finish sorts the distinct positive values and returns the canonical pool.
// It compacts the table in place, so the builder is spent afterwards.
func (b *poolBuilder) finish() *valuePool {
	runs := b.slots[:0]
	for _, s := range b.slots {
		if s.key != 0 {
			runs = append(runs, s)
		}
	}
	sorted := make([]poolSlot, len(runs))
	sortSlots(runs, sorted)
	p := &valuePool{
		pos:    make([]float64, len(runs)),
		posCnt: make([]int64, len(runs)),
		zeros:  b.zeros,
		total:  b.total,
		maxAll: b.maxAll,
	}
	for r, s := range sorted {
		p.pos[r] = math.Float64frombits(s.key)
		p.posCnt[r] = s.cnt
	}
	return p
}

// sortSlots writes slots, sorted by key ascending, to out (of the same
// length), using slots as scratch. Past a few hundred slots an LSD radix
// sort over the key bytes beats pdqsort several times over; a byte that
// every key shares (the sign and the high exponent bits of same-scale
// values) costs no pass.
func sortSlots(slots, out []poolSlot) {
	if len(slots) < 256 {
		copy(out, slots)
		slices.SortFunc(out, func(a, b poolSlot) int { return cmp.Compare(a.key, b.key) })
		return
	}
	var counts [8][256]int
	for _, s := range slots {
		for d := range counts {
			counts[d][byte(s.key>>(8*d))]++
		}
	}
	src, dst := slots, out
	for d := range counts {
		c := &counts[d]
		if c[byte(slots[0].key>>(8*d))] == len(slots) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i] = sum
			sum += n
		}
		for _, s := range src {
			b := byte(s.key >> (8 * d))
			dst[c[b]] = s
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &out[0] {
		copy(out, src)
	}
}

// twoMeansTau runs the pinned two-means selector over the pool.
func (p *valuePool) twoMeansTau() float64 {
	return stats.TwoMeansThresholdRuns(p.pos, p.posCnt, p.zeros, twoMeansMaxIter)
}

// fdrTau runs the Benjamini–Hochberg selector of SelectThresholdFDR over the
// pool. Ranks are evaluated at run boundaries, which is exactly equivalent
// to the per-value walk: within a run the p-value is constant while the BH
// bar α·k/M only rises with k, so a run qualifies iff its last rank does.
func (p *valuePool) fdrTau(beta int, alpha float64) float64 {
	if alpha <= 0 || alpha >= 1 {
		panic("core: FDR alpha must be in (0,1)")
	}
	if p.total == 0 {
		return 0
	}
	mTests := float64(p.total)
	factor := 2 * math.Ln2 * float64(beta)
	var accepted int64 = -1
	var acceptedVal float64
	var rank int64
	for r := len(p.pos) - 1; r >= 0; r-- {
		v := p.pos[r]
		rank += p.posCnt[r]
		pv := chiSquared1Tail(factor * v)
		if pv <= alpha*float64(rank)/mTests {
			accepted = rank
			acceptedVal = v
		}
	}
	if accepted < 0 {
		return p.maxAll + 1 // above the maximum: prune everything
	}
	// Candidates are admitted by value > τ, so back off an epsilon to keep
	// the boundary value itself.
	return acceptedVal * (1 - 1e-12)
}
