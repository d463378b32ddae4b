// Package core implements TENDS, the paper's primary contribution: topology
// estimation of diffusion networks from final infection statuses only.
//
// The three pieces are (1) the decomposable scoring criterion of Eq. (12)/(13)
// balancing likelihood against statistical error, (2) the Theorem-2 upper
// bound on parent-set sizes, and (3) the infection-MI pruning heuristic of
// Section IV-B. Infer assembles them into Algorithm 1.
package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"tends/internal/diffusion"
)

// Scorer evaluates local scores g(v_i, F_i) against a fixed observation
// matrix. Columns are kept bit-packed so that the joint counting behind
// every score evaluation runs over machine words: for a parent set of size
// k, the instance count of each of the 2^k status combinations is a string
// of AND/ANDNOT + popcount operations. For large parent sets, where 2^k
// word scans would cost more than one pass over the observations, the
// active-row path counts only the processes in which some parent is
// infected and derives the all-uninfected combination from column totals.
type Scorer struct {
	beta, n int
	words   int        // 64-bit words per column
	cols    [][]uint64 // packed status per node
	tail    uint64     // mask of valid bits in the last word
	deltas  []float64  // Theorem-2 δ_i per node
	ones    []int      // N₂ per node
	logs    []float64  // logs[k] = log₂(k) for k in [0, β+1]; logs[0] unused
	penalty PenaltyMode
	// scratchPool recycles the per-evaluation buffers of packedCombos and
	// activeCombos; the scorer is shared by concurrent per-node searches,
	// so the scratch cannot live on the struct directly.
	scratchPool sync.Pool
}

// PenaltyMode selects the statistical-error penalty of the local score.
type PenaltyMode int

const (
	// PenaltyPaper is Eq. (13): ½ Σ_j log₂(N_ij + 1) over the observed
	// parent-status combinations.
	PenaltyPaper PenaltyMode = iota
	// PenaltyBIC charges the classic ½·log₂(β) per free parameter (one
	// Bernoulli parameter per observed combination) — strictly harsher
	// than the paper's penalty once combinations fragment.
	PenaltyBIC
	// PenaltyNone scores by raw likelihood. Theorem 1 then guarantees the
	// maximizer is the complete graph; exists for the ablation that shows
	// why a penalty is required at all.
	PenaltyNone
)

// SetPenaltyMode switches the penalty used by subsequent score
// evaluations. The default is PenaltyPaper.
func (s *Scorer) SetPenaltyMode(m PenaltyMode) { s.penalty = m }

// NewScorer prepares a scorer for the given status matrix.
func NewScorer(m *diffusion.StatusMatrix) *Scorer {
	beta, n := m.Beta(), m.N()
	words := (beta + 63) / 64
	tail := ^uint64(0)
	if r := beta % 64; r != 0 {
		tail = (uint64(1) << r) - 1
	}
	s := &Scorer{
		beta:   beta,
		n:      n,
		words:  words,
		cols:   make([][]uint64, n),
		tail:   tail,
		deltas: make([]float64, n),
		ones:   make([]int, n),
		logs:   make([]float64, beta+2),
	}
	for k := 1; k <= beta+1; k++ {
		s.logs[k] = math.Log2(float64(k))
	}
	s.scratchPool.New = func() any { return new(scoreScratch) }
	for v := 0; v < n; v++ {
		col := make([]uint64, words)
		copy(col, m.Column(v))
		if words > 0 {
			col[words-1] &= tail
		}
		s.cols[v] = col
		s.ones[v] = m.CountInfected(v)
		s.deltas[v] = delta(beta, s.ones[v])
	}
	return s
}

// Beta returns the number of observed diffusion processes.
func (s *Scorer) Beta() int { return s.beta }

// N returns the number of nodes.
func (s *Scorer) N() int { return s.n }

// Delta returns δ_i of Theorem 2 for node i:
//
//	δ_i = 2·N₁·log₂(β/N₁) + 2·N₂·log₂(β/N₂) + log₂(β+1)
//
// with the 0·log(·) = 0 convention when a status never occurs.
func (s *Scorer) Delta(i int) float64 { return s.deltas[i] }

func delta(beta, n2 int) float64 {
	n1 := beta - n2
	d := math.Log2(float64(beta) + 1)
	if n1 > 0 {
		d += 2 * float64(n1) * math.Log2(float64(beta)/float64(n1))
	}
	if n2 > 0 {
		d += 2 * float64(n2) * math.Log2(float64(beta)/float64(n2))
	}
	return d
}

// ScoreParts holds the components of a local score evaluation.
type ScoreParts struct {
	LogLikelihood float64 // log₂ L(v_i, F_i), Eq. (3)
	Penalty       float64 // ½ Σ_j log₂(N_ij + 1)
	Observed      int     // combinations with at least one instance
	Phi           float64 // φ_F: 2^|F| minus Observed
}

// Score returns g = LogLikelihood - Penalty.
func (p ScoreParts) Score() float64 { return p.LogLikelihood - p.Penalty }

// addCombo folds one combination's (N_ij1, N_ij2) into the running parts.
// This is the definitional form; the scoring hot paths use the scorer's
// table-backed equivalent below, and tests check the two agree.
func (p *ScoreParts) addCombo(k0, k1 int) {
	nij := k0 + k1
	if nij == 0 {
		return
	}
	if k0 > 0 {
		p.LogLikelihood += float64(k0) * math.Log2(float64(k0)/float64(nij))
	}
	if k1 > 0 {
		p.LogLikelihood += float64(k1) * math.Log2(float64(k1)/float64(nij))
	}
	p.Penalty += 0.5 * math.Log2(float64(nij)+1)
	p.Observed++
}

// addCombo is the table-backed fold used by every scoring path: all counts
// are integers in [0, β], so k·log₂(k/n) collapses to k·(logs[k] − logs[n])
// and the penalty's log₂(n+1) to a lookup. The Log2 calls it replaces
// dominate combination enumeration once masks are shared; the identity
// changes rounding order only (~1 ulp vs ScoreParts.addCombo).
func (s *Scorer) addCombo(parts *ScoreParts, k0, k1 int) {
	nij := k0 + k1
	if nij == 0 {
		return
	}
	ln := s.logs[nij]
	if k0 > 0 {
		parts.LogLikelihood += float64(k0) * (s.logs[k0] - ln)
	}
	if k1 > 0 {
		parts.LogLikelihood += float64(k1) * (s.logs[k1] - ln)
	}
	parts.Penalty += 0.5 * s.logs[nij+1]
	parts.Observed++
}

// LocalScoreParts evaluates the local score components of parent set
// parents for node child. An empty parent set reproduces Eq. (18).
func (s *Scorer) LocalScoreParts(child int, parents []int) ScoreParts {
	k := len(parents)
	if k > 63 {
		panic("core: parent sets beyond 63 nodes are not representable")
	}
	var parts ScoreParts
	// Packed path: up to 2^k masks split one parent at a time, cheapest
	// while 2^k·words stays within β. Past that, the active-row path's
	// cost follows the number of processes with an infected parent
	// instead of 2^k.
	if s.packedWorthwhile(k) {
		s.packedCombos(child, parents, &parts)
	} else {
		s.activeCombos(child, parents, &parts)
	}
	s.finishParts(k, &parts)
	return parts
}

// packedWorthwhile reports whether a parent set of size k is scored by the
// 2^k masked-popcount path rather than the active-row path. The crossover
// is on k alone: at β ≤ 250 the paper's dense columns favour the masks at
// small k, and a crossover on the observed active-row count was measured
// to slow the streaming recompute.
func (s *Scorer) packedWorthwhile(k int) bool {
	return k <= 2 || (1<<uint(k))*s.words <= s.beta
}

// finishParts fills the derived fields of a score evaluation: φ_F and the
// penalty-mode override.
func (s *Scorer) finishParts(k int, parts *ScoreParts) {
	parts.Phi = math.Exp2(float64(k)) - float64(parts.Observed)
	switch s.penalty {
	case PenaltyBIC:
		parts.Penalty = 0.5 * math.Log2(float64(s.beta)) * float64(parts.Observed)
	case PenaltyNone:
		parts.Penalty = 0
	}
}

// packedCombos counts the 2^k parent-status combinations as bit masks. It
// splits the all-processes mask on one parent per level, the last parent
// first and its uninfected half first, so the leaves arrive in ascending
// combo order (bit i of the combo is parents[i]'s status) and each split
// costs one AND/ANDNOT over the words instead of rebuilding every mask from
// all k columns. A split that leaves no process is not descended: every
// combination below it is empty, and addCombo would skip it anyway, so the
// fold sequence and the parts are unchanged.
func (s *Scorer) packedCombos(child int, parents []int, parts *ScoreParts) {
	k := len(parents)
	if k == 0 {
		n1 := s.beta - s.ones[child]
		s.addCombo(parts, n1, s.ones[child])
		return
	}
	sc := s.scratchPool.Get().(*scoreScratch)
	defer s.scratchPool.Put(sc)
	if need := (k + 1) * s.words; cap(sc.masks) < need {
		sc.masks = make([]uint64, need)
	}
	all := sc.masks[:s.words]
	for w := range all {
		all[w] = ^uint64(0)
	}
	all[s.words-1] = s.tail
	s.splitCombos(s.cols[child], parents, sc.masks, parts)
}

// splitCombos folds the combinations below the mask at the head of masks,
// which has already been split on every parent past parents[len-1]; the
// rest of masks is scratch for the deeper levels.
func (s *Scorer) splitCombos(childCol []uint64, parents []int, masks []uint64, parts *ScoreParts) {
	words := s.words
	mask := masks[:words:words]
	if len(parents) == 0 {
		nij, k1 := 0, 0
		for w, m := range mask {
			nij += bits.OnesCount64(m)
			k1 += bits.OnesCount64(m & childCol[w])
		}
		s.addCombo(parts, nij-k1, k1)
		return
	}
	last := len(parents) - 1
	col := s.cols[parents[last]]
	sub := masks[words : 2*words : 2*words]
	var live uint64
	for w, m := range mask {
		sub[w] = m &^ col[w]
		live |= sub[w]
	}
	if live != 0 {
		s.splitCombos(childCol, parents[:last], masks[words:], parts)
	}
	live = 0
	for w, m := range mask {
		sub[w] = m & col[w]
		live |= sub[w]
	}
	if live != 0 {
		s.splitCombos(childCol, parents[:last], masks[words:], parts)
	}
}

// scoreScratch is the pooled scratch of one score evaluation: the mask
// stack of packedCombos, and the per-row keys of activeCombos.
type scoreScratch struct {
	masks []uint64
	keys  []uint64
}

// activeCombos counts the parent-status combinations from the active rows
// only: the processes in which at least one parent is infected. Each active
// row contributes key<<1 | child, where bit i of key is parents[i]'s status
// (packedCombos' combo numbering). Sorting the keys groups each combination
// into one run, uninfected children first. The all-uninfected combination
// (key 0) never occurs among active rows; its counts follow from the column
// totals. Key 0 is folded first and the runs in ascending key order, so
// addCombo sees exactly packedCombos' sequence, zero-count combinations
// aside (which it skips), and the parts are bit-identical.
func (s *Scorer) activeCombos(child int, parents []int, parts *ScoreParts) {
	sc := s.scratchPool.Get().(*scoreScratch)
	defer s.scratchPool.Put(sc)
	keys, hits := s.activeKeys(sc.keys[:0], child, parents, 0, nil)
	slices.Sort(keys)
	sc.keys = keys
	s.foldActive(parts, child, keys, hits)
}

// activeKeys appends the key parents' status bits<<1 | child status of
// every process in which at least one of parents is infected, in process
// order. With tag > 0 each key is shifted left by tag bits and the process
// index stored below it. A non-nil mask receives the active processes as a
// bitset. It returns the keys and how many of those processes have the
// child infected.
func (s *Scorer) activeKeys(keys []uint64, child int, parents []int, tag uint, mask []uint64) ([]uint64, int) {
	childCol := s.cols[child]
	hits := 0
	var pw [63]uint64 // parents' status words at the current word index
	for w := 0; w < s.words; w++ {
		var active uint64
		for i, p := range parents {
			pw[i] = s.cols[p][w]
			active |= pw[i]
		}
		if mask != nil {
			mask[w] = active
		}
		cw := childCol[w]
		hits += bits.OnesCount64(active & cw)
		for active != 0 {
			b := uint(bits.TrailingZeros64(active))
			active &= active - 1
			key := cw >> b & 1
			for i := range parents {
				key |= (pw[i] >> b & 1) << uint(i+1)
			}
			if tag > 0 {
				key = key<<tag | uint64(w*64) | uint64(b)
			}
			keys = append(keys, key)
		}
	}
	return keys, hits
}

// foldActive folds the combinations of sorted active-row keys (status
// bits<<1 | child status, see activeCombos), preceded by the
// all-uninfected combination derived from the child's column total: hits
// is the number of active rows with the child infected.
func (s *Scorer) foldActive(parts *ScoreParts, child int, keys []uint64, hits int) {
	zero1 := s.ones[child] - hits
	s.addCombo(parts, s.beta-len(keys)-zero1, zero1)
	for i := 0; i < len(keys); {
		combo := keys[i] >> 1
		k0, k1 := 0, 0
		for ; i < len(keys) && keys[i]>>1 == combo; i++ {
			if keys[i]&1 == 0 {
				k0++
			} else {
				k1++
			}
		}
		s.addCombo(parts, k0, k1)
	}
}

// prefixScorer scores parent sets that extend one fixed prefix F: the
// probe unions F ∪ W of a greedy merge round, listed as F's nodes followed
// by W's new ones. Past the packed crossover it keeps F's active rows
// sorted by their F key, so a probe neither rebuilds F's bits nor sorts.
// It appends the new nodes' status bits above F's, adds the rows where only
// a new node is infected, and orders the keys by one stable counting pass
// on the new nodes' bits: within each of their patterns the rows already
// ascend by F key. The fold order, and so every part, is LocalScoreParts'
// to the bit. A prefixScorer serves one child and one goroutine.
type prefixScorer struct {
	s     *Scorer
	child int
	ready bool     // the fields below describe the current prefix
	tag   uint     // low key bits holding the process index
	rows  []uint64 // F's active rows: (F key<<1 | child)<<tag | process, sorted
	hits  int      // of those rows, the ones with the child infected
	mask  []uint64 // F's active rows as a bitset
	keys  []uint64 // per-probe scratch
	out   []uint64 // per-probe scratch: keys in fold order
	count []int    // per-probe scratch: counting-pass buckets
}

// maxPrefixNew bounds the new nodes a probe may add for the counting pass,
// whose 2^m buckets must stay small next to the rows it orders.
const maxPrefixNew = 8

func newPrefixScorer(s *Scorer, child int) prefixScorer {
	return prefixScorer{s: s, child: child, tag: uint(max(1, bits.Len(uint(s.beta-1))))}
}

// reset marks the prepared prefix stale; call it whenever F changes.
func (ps *prefixScorer) reset() { ps.ready = false }

// parts returns LocalScoreParts(child, union) for a union whose first f
// nodes are the current prefix F.
func (ps *prefixScorer) parts(union []int, f int) ScoreParts {
	s := ps.s
	k, m := len(union), len(union)-f
	if s.packedWorthwhile(k) || f == 0 || m > maxPrefixNew || uint(f+m+1)+ps.tag > 64 {
		return s.LocalScoreParts(ps.child, union)
	}
	if !ps.ready {
		if len(ps.mask) != s.words {
			ps.mask = make([]uint64, s.words)
		}
		ps.rows, ps.hits = s.activeKeys(ps.rows[:0], ps.child, union[:f], ps.tag, ps.mask)
		slices.Sort(ps.rows)
		ps.ready = true
	}
	var nc [maxPrefixNew][]uint64 // the new nodes' columns
	for j, v := range union[f:] {
		nc[j] = s.cols[v]
	}
	shift := uint(f + 1)
	childCol := s.cols[ps.child]
	keys := ps.keys[:0]
	hits := ps.hits
	// Rows where only new nodes are infected: F key 0, so they lead their
	// pattern's run in fold order.
	for w := 0; w < s.words; w++ {
		var only uint64
		for j := 0; j < m; j++ {
			only |= nc[j][w]
		}
		only &^= ps.mask[w]
		cw := childCol[w]
		hits += bits.OnesCount64(only & cw)
		for only != 0 {
			b := uint(bits.TrailingZeros64(only))
			only &= only - 1
			key := cw >> b & 1
			for j := 0; j < m; j++ {
				key |= (nc[j][w] >> b & 1) << (shift + uint(j))
			}
			keys = append(keys, key)
		}
	}
	rowMask := uint64(1)<<ps.tag - 1
	for _, r := range ps.rows {
		row := r & rowMask
		w, b := row>>6, row&63
		key := r >> ps.tag
		for j := 0; j < m; j++ {
			key |= (nc[j][w] >> b & 1) << (shift + uint(j))
		}
		keys = append(keys, key)
	}
	ps.keys = keys
	// Stable counting pass on the new nodes' pattern.
	if n := 1<<uint(m) + 1; cap(ps.count) < n {
		ps.count = make([]int, n, 1<<maxPrefixNew+1)
	}
	count := ps.count[:1<<uint(m)+1]
	clear(count)
	for _, key := range keys {
		count[key>>shift+1]++
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	if cap(ps.out) < len(keys) {
		ps.out = make([]uint64, len(keys), 2*len(keys))
	}
	out := ps.out[:len(keys)]
	for _, key := range keys {
		d := key >> shift
		out[count[d]] = key
		count[d]++
	}
	var parts ScoreParts
	s.foldActive(&parts, ps.child, out, hits)
	s.finishParts(k, &parts)
	return parts
}

// comboScratch is the reusable mask tree of a combination-enumeration
// DFS. Level d stores the 2^d parent-status masks of the current depth-d
// combination, flat and combo-major, so extending the DFS by one candidate
// derives level d from level d-1 with a single AND/ANDNOT per mask instead
// of rebuilding every mask from all d columns per combination.
type comboScratch struct {
	levels [][]uint64
}

// newComboScratch sizes a scratch for combinations of up to maxSize
// parents. Depths past the packed/active-row crossover are never
// materialized — the enumeration scores those via the active-row path,
// which needs no masks — so the total footprint stays bounded by
// O(maxSize·β) bits.
func (s *Scorer) newComboScratch(maxSize int) *comboScratch {
	lim := 0
	for lim < maxSize && s.packedWorthwhile(lim+1) {
		lim++
	}
	sc := &comboScratch{levels: make([][]uint64, lim+1)}
	for d := 0; d <= lim; d++ {
		sc.levels[d] = make([]uint64, (1<<uint(d))*s.words)
	}
	// Level 0: the single all-processes mask.
	lvl0 := sc.levels[0]
	for w := range lvl0 {
		lvl0[w] = ^uint64(0)
	}
	if s.words > 0 {
		lvl0[s.words-1] = s.tail
	}
	return sc
}

// packedLimit returns the deepest level the scratch materializes.
func (sc *comboScratch) packedLimit() int { return len(sc.levels) - 1 }

// extend derives level d's masks from level d-1 by splitting every mask on
// the status column of the newly added parent. The new parent occupies the
// high combo-index bit (clear half first, set half second), which is
// exactly packedCombos' combo numbering — so scores folded from a level
// match packedCombos bit for bit, float summation order included.
func (sc *comboScratch) extend(s *Scorer, d, parent int) {
	src := sc.levels[d-1]
	dst := sc.levels[d]
	col := s.cols[parent]
	words := s.words
	half := (1 << uint(d-1)) * words
	for i := 0; i < 1<<uint(d-1); i++ {
		sm := src[i*words : (i+1)*words]
		d0 := dst[i*words : (i+1)*words]
		d1 := dst[half+i*words : half+(i+1)*words]
		for w := 0; w < words; w++ {
			d0[w] = sm[w] &^ col[w]
			d1[w] = sm[w] & col[w]
		}
	}
}

// scoreLevel folds the 2^k masks of a scratch level into the score parts
// for child, equivalent to LocalScoreParts on the parent set the level
// encodes but without rebuilding any mask.
func (s *Scorer) scoreLevel(child int, level []uint64, k int) ScoreParts {
	var parts ScoreParts
	childCol := s.cols[child]
	words := s.words
	for c := 0; c < 1<<uint(k); c++ {
		mask := level[c*words : (c+1)*words : (c+1)*words]
		nij, k1 := 0, 0
		for w := 0; w < words; w++ {
			nij += bits.OnesCount64(mask[w])
			k1 += bits.OnesCount64(mask[w] & childCol[w])
		}
		s.addCombo(&parts, nij-k1, k1)
	}
	s.finishParts(k, &parts)
	return parts
}

// LocalScore is Eq. (13): g(v_i, F_i).
func (s *Scorer) LocalScore(child int, parents []int) float64 {
	return s.LocalScoreParts(child, parents).Score()
}

// BoundHolds reports the Theorem-2 condition |F| ≤ log₂(φ_F + δ_i) for a
// parent set of the given size and φ value, for child node i.
func (s *Scorer) BoundHolds(i int, setSize int, phi float64) bool {
	if setSize == 0 {
		return true
	}
	arg := phi + s.deltas[i]
	if arg <= 0 {
		return false
	}
	return float64(setSize) <= math.Log2(arg)
}

// TotalScore is the decomposable criterion g(T) of Eq. (12) for a full
// topology expressed as parent sets per node.
func (s *Scorer) TotalScore(parents [][]int) float64 {
	var total float64
	for i := 0; i < s.n; i++ {
		total += s.LocalScore(i, parents[i])
	}
	return total
}
