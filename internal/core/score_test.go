package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"tends/internal/diffusion"
)

// randomStatus builds a random beta×n status matrix from a seed.
func randomStatus(beta, n int, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		for v := 0; v < n; v++ {
			m.Set(p, v, rng.Intn(2) == 1)
		}
	}
	return m
}

// Lemma 1: (b/a)^b <= (b1/a1)^b1 * (b2/a2)^b2 for non-negative integers
// with a=a1+a2, b=b1+b2. Verified in log space with the 0·log0 convention.
func TestLemma1Property(t *testing.T) {
	logTerm := func(b, a int) float64 {
		if b == 0 {
			return 0
		}
		return float64(b) * math.Log2(float64(b)/float64(a))
	}
	f := func(a1Raw, a2Raw, b1Raw, b2Raw uint8) bool {
		a1, a2 := int(a1Raw%50)+1, int(a2Raw%50)+1
		b1, b2 := int(b1Raw)%(a1+1), int(b2Raw)%(a2+1)
		lhs := logTerm(b1+b2, a1+a2)
		rhs := logTerm(b1, a1) + logTerm(b2, a2)
		return lhs <= rhs+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Theorem 1: adding any node to a parent set never decreases the
// log-likelihood part of the local score.
func TestTheorem1LikelihoodMonotone(t *testing.T) {
	f := func(seed int64, childRaw, extraRaw uint8) bool {
		const n = 6
		m := randomStatus(40, n, seed)
		s := NewScorer(m)
		child := int(childRaw) % n
		extra := int(extraRaw) % n
		if extra == child {
			extra = (extra + 1) % n
		}
		base := []int{(child + 1) % n}
		if base[0] == extra {
			base[0] = (extra + 1) % n
			if base[0] == child {
				base[0] = (base[0] + 1) % n
			}
		}
		withExtra := append(append([]int(nil), base...), extra)
		l0 := s.LocalScoreParts(child, base).LogLikelihood
		l1 := s.LocalScoreParts(child, withExtra).LogLikelihood
		return l1 >= l0-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The empty-set score must match Eq. (18) exactly.
func TestEmptySetScoreEq18(t *testing.T) {
	m := randomStatus(100, 3, 3)
	s := NewScorer(m)
	for child := 0; child < 3; child++ {
		n2 := 0
		for p := 0; p < 100; p++ {
			if m.Get(p, child) {
				n2++
			}
		}
		n1 := 100 - n2
		want := -0.5 * math.Log2(101)
		if n1 > 0 {
			want += float64(n1) * math.Log2(float64(n1)/100)
		}
		if n2 > 0 {
			want += float64(n2) * math.Log2(float64(n2)/100)
		}
		if got := s.LocalScore(child, nil); math.Abs(got-want) > 1e-9 {
			t.Fatalf("child %d: empty score = %v, want %v", child, got, want)
		}
	}
}

func TestDeltaFormula(t *testing.T) {
	// β=150, N2=75: δ = 2·75·1 + 2·75·1 + log2(151)
	want := 300 + math.Log2(151)
	if got := delta(150, 75); math.Abs(got-want) > 1e-9 {
		t.Fatalf("delta(150,75) = %v, want %v", got, want)
	}
	// Degenerate columns: only the log term remains.
	if got := delta(150, 0); math.Abs(got-math.Log2(151)) > 1e-9 {
		t.Fatalf("delta(150,0) = %v, want %v", got, math.Log2(151))
	}
	if got := delta(150, 150); math.Abs(got-math.Log2(151)) > 1e-9 {
		t.Fatalf("delta(150,150) = %v, want %v", got, math.Log2(151))
	}
}

// naiveCombo is one parent-status combination's instance counts.
type naiveCombo struct {
	key    uint64
	k0, k1 int // processes with the child uninfected / infected
}

// naiveCombos counts the parent-status combinations straight from the
// definition, one status lookup per (process, parent), ascending by key.
func naiveCombos(m *diffusion.StatusMatrix, child int, parents []int) []naiveCombo {
	counts := map[uint64][2]int{}
	for p := 0; p < m.Beta(); p++ {
		var key uint64
		for bi, par := range parents {
			if m.Get(p, par) {
				key |= 1 << uint(bi)
			}
		}
		cc := counts[key]
		if m.Get(p, child) {
			cc[1]++
		} else {
			cc[0]++
		}
		counts[key] = cc
	}
	out := make([]naiveCombo, 0, len(counts))
	for key, cc := range counts {
		out = append(out, naiveCombo{key: key, k0: cc[0], k1: cc[1]})
	}
	slices.SortFunc(out, func(a, b naiveCombo) int { return cmp.Compare(a.key, b.key) })
	return out
}

// naiveScoreParts recomputes the local score components directly from the
// definition, folding with the definitional ScoreParts.addCombo.
func naiveScoreParts(m *diffusion.StatusMatrix, child int, parents []int) ScoreParts {
	var parts ScoreParts
	for _, c := range naiveCombos(m, child, parents) {
		parts.addCombo(c.k0, c.k1)
	}
	parts.Phi = math.Exp2(float64(len(parents))) - float64(parts.Observed)
	return parts
}

// naiveTableParts is naiveScoreParts folded the way every scoring path
// folds: the scorer's table-backed addCombo in ascending key order. The
// scoring paths must match it exactly, not merely within rounding.
func naiveTableParts(s *Scorer, m *diffusion.StatusMatrix, child int, parents []int) ScoreParts {
	var parts ScoreParts
	for _, c := range naiveCombos(m, child, parents) {
		s.addCombo(&parts, c.k0, c.k1)
	}
	s.finishParts(len(parents), &parts)
	return parts
}

// Both scoring paths (packed masks for small parent sets, per-process
// bucketing for large ones) must agree with the naive definition.
func TestScorePartsMatchNaive(t *testing.T) {
	f := func(seed int64, betaRaw uint8, parentCount uint8) bool {
		const n = 9
		beta := int(betaRaw%120) + 1
		m := randomStatus(beta, n, seed)
		s := NewScorer(m)
		k := int(parentCount % 8)
		parents := make([]int, 0, k)
		for j := 1; j <= k; j++ {
			parents = append(parents, j)
		}
		got := s.LocalScoreParts(0, parents)
		want := naiveScoreParts(m, 0, parents)
		return math.Abs(got.LogLikelihood-want.LogLikelihood) < 1e-9 &&
			math.Abs(got.Penalty-want.Penalty) < 1e-9 &&
			got.Observed == want.Observed &&
			got.Phi == want.Phi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// densityStatus builds a beta×n status matrix whose columns 1..n-1 are
// infected with probability density each. Column 0, the child, is a fair
// coin so that both child statuses occur inside every combination.
func densityStatus(beta, n int, density float64, seed int64) *diffusion.StatusMatrix {
	rng := rand.New(rand.NewSource(seed))
	m := diffusion.NewStatusMatrix(beta, n)
	for p := 0; p < beta; p++ {
		m.Set(p, 0, rng.Intn(2) == 1)
		for v := 1; v < n; v++ {
			m.Set(p, v, rng.Float64() < density)
		}
	}
	return m
}

// Force both internal paths at every k from 0 to 20, across the word
// boundary and at the sparse densities the active-row path exists for, and
// require exact equality: the active-row path, the packed masks and the
// naive definition fold the same counts in the same order, so every field
// must match bit for bit. The packed path costs 2^k·k·words per call, so
// short mode compares it only up to k=12; the naive comparison covers
// every k in both modes.
func TestScorePathsAgreeAcrossWordBoundary(t *testing.T) {
	const n = 21
	maxPackedK := 20
	if testing.Short() {
		maxPackedK = 12
	}
	allZero := diffusion.NewStatusMatrix(130, n)
	allOnes := diffusion.NewStatusMatrix(130, n)
	rng := rand.New(rand.NewSource(5))
	for p := 0; p < 130; p++ {
		child := rng.Intn(2) == 1
		allZero.Set(p, 0, child)
		allOnes.Set(p, 0, child)
		for v := 1; v < n; v++ {
			allOnes.Set(p, v, true)
		}
	}
	type instance struct {
		name string
		m    *diffusion.StatusMatrix
	}
	cases := []instance{
		{"all-zero parents (no active rows)", allZero},
		{"all-one parents (empty key-0 cell)", allOnes},
	}
	for _, beta := range []int{1, 63, 64, 65, 1024} {
		for _, density := range []float64{0.005, 0.05, 0.5} {
			cases = append(cases, instance{
				fmt.Sprintf("beta=%d density=%v", beta, density),
				densityStatus(beta, n, density, int64(beta)*1000+int64(density*1000)),
			})
		}
	}
	for _, tc := range cases {
		s := NewScorer(tc.m)
		for k := 0; k <= 20; k++ {
			parents := make([]int, 0, k)
			for j := 1; j <= k; j++ {
				parents = append(parents, j)
			}
			var active ScoreParts
			s.activeCombos(0, parents, &active)
			s.finishParts(k, &active)
			if naive := naiveTableParts(s, tc.m, 0, parents); active != naive {
				t.Fatalf("%s k=%d:\nactive=%+v\nnaive =%+v", tc.name, k, active, naive)
			}
			if k <= maxPackedK {
				var packed ScoreParts
				s.packedCombos(0, parents, &packed)
				s.finishParts(k, &packed)
				if active != packed {
					t.Fatalf("%s k=%d:\nactive=%+v\npacked=%+v", tc.name, k, active, packed)
				}
			}
			if got := s.LocalScoreParts(0, parents); got != active {
				t.Fatalf("%s k=%d: LocalScoreParts=%+v, want %+v", tc.name, k, got, active)
			}
		}
	}
}

// The merge's prefix scorer must reproduce LocalScoreParts exactly for
// every probe union F ∪ W: across the word boundary, at sparse and dense
// columns, for prefixes on both sides of the packed crossover, for new-node
// counts past its counting-pass bound, and across prefix changes.
func TestPrefixScorerMatchesLocalScoreParts(t *testing.T) {
	const n = 32
	for _, beta := range []int{1, 63, 64, 65, 1024} {
		for _, density := range []float64{0.005, 0.05, 0.5} {
			m := densityStatus(beta, n, density, int64(beta)*7+int64(density*1000))
			s := NewScorer(m)
			rng := rand.New(rand.NewSource(int64(beta)))
			ps := newPrefixScorer(s, 0)
			var prefix []int
			for f := 0; f <= 20; f++ {
				ps.reset()
				for probe := 0; probe < 4; probe++ {
					union := append([]int(nil), prefix...)
					for _, v := range rng.Perm(n - 1)[:1+rng.Intn(maxPrefixNew+2)] {
						if !slices.Contains(union, v+1) {
							union = append(union, v+1)
						}
					}
					got, want := ps.parts(union, len(prefix)), s.LocalScoreParts(0, union)
					if got != want {
						t.Fatalf("beta=%d density=%v F=%v union=%v:\nprefix=%+v\nlocal =%+v", beta, density, prefix, union, got, want)
					}
				}
				// Grow F by one node not yet in it.
				for {
					v := 1 + rng.Intn(n-1)
					if !slices.Contains(prefix, v) {
						prefix = append(prefix, v)
						break
					}
				}
			}
		}
	}
}

// Decomposability: g(T) equals the sum of local scores.
func TestTotalScoreDecomposable(t *testing.T) {
	m := randomStatus(60, 5, 7)
	s := NewScorer(m)
	parents := [][]int{{1}, {0, 2}, nil, {4}, {0}}
	var sum float64
	for i, f := range parents {
		sum += s.LocalScore(i, f)
	}
	if got := s.TotalScore(parents); math.Abs(got-sum) > 1e-9 {
		t.Fatalf("TotalScore = %v, want %v", got, sum)
	}
}

// Penalty controls overfitting in the regime the algorithm actually
// explores: adding an independent (bogus) parent to a small set loses to
// the smaller set, because the likelihood gain is negligible while the
// combination count — and so the penalty — doubles.
func TestPenaltyControlsOverfit(t *testing.T) {
	// All columns independent coin flips: no real parents exist.
	m := randomStatus(200, 8, 9)
	s := NewScorer(m)
	child := 0
	empty := s.LocalScore(child, nil)
	one := s.LocalScore(child, []int{1})
	two := s.LocalScore(child, []int{1, 2})
	if one >= empty {
		t.Fatalf("1 bogus parent scored %v >= empty %v; penalty too weak", one, empty)
	}
	if two >= one {
		t.Fatalf("2 bogus parents scored %v >= one %v; penalty too weak", two, one)
	}
}

// In the memorization regime (2^|F| comparable to β) the likelihood can
// outrun the per-combination penalty; Theorem 2's bound plus IMI pruning —
// not the penalty alone — are what keep inference sparse there. Document
// that end to end: Infer on pure noise stays near-empty even though a huge
// bogus parent set can out-score the empty set locally.
func TestOverfitRegimeHandledByPruning(t *testing.T) {
	m := randomStatus(80, 8, 9)
	s := NewScorer(m)
	if full := s.LocalScore(0, []int{1, 2, 3, 4, 5, 6, 7}); full <= s.LocalScore(0, nil) {
		t.Skip("data did not exhibit the memorization regime; nothing to document")
	}
	res, err := Infer(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.NumEdges() > 4 {
		t.Fatalf("Infer on pure noise produced %d edges; pruning failed to contain overfitting", res.Graph.NumEdges())
	}
}

func TestBoundHolds(t *testing.T) {
	m := randomStatus(150, 4, 11)
	s := NewScorer(m)
	if !s.BoundHolds(0, 0, 0) {
		t.Fatal("empty set must always satisfy the bound")
	}
	// δ for a random balanced column is ≈ 300; a single parent with φ=0
	// needs 1 <= log2(300) ≈ 8.2 — holds.
	if !s.BoundHolds(0, 1, 0) {
		t.Fatal("size-1 bound should hold for balanced data")
	}
	// Astronomically large set with tiny φ+δ must fail.
	if s.BoundHolds(0, 60, -s.Delta(0)+0.5) {
		t.Fatal("bound held for absurd set size")
	}
}

func TestScorerAccessors(t *testing.T) {
	m := randomStatus(33, 4, 13)
	s := NewScorer(m)
	if s.Beta() != 33 || s.N() != 4 {
		t.Fatalf("dims = %d,%d", s.Beta(), s.N())
	}
	for v := 0; v < 4; v++ {
		if s.Delta(v) <= 0 {
			t.Fatalf("delta(%d) = %v, want positive", v, s.Delta(v))
		}
	}
}

func TestLocalScorePartsPhi(t *testing.T) {
	// Construct data where one parent combination never occurs.
	m := diffusion.NewStatusMatrix(10, 3)
	for p := 0; p < 10; p++ {
		m.Set(p, 1, true) // parent 1 always infected
	}
	s := NewScorer(m)
	parts := s.LocalScoreParts(0, []int{1, 2})
	// Parent 2 always 0, parent 1 always 1 → only one combination observed,
	// so φ = 4 - 1 = 3.
	if parts.Observed != 1 || parts.Phi != 3 {
		t.Fatalf("observed=%d phi=%v, want 1 and 3", parts.Observed, parts.Phi)
	}
}

func TestLocalScorePanicsOnHugeParentSet(t *testing.T) {
	m := randomStatus(4, 70, 1)
	s := NewScorer(m)
	parents := make([]int, 64)
	for i := range parents {
		parents[i] = i + 1
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 64 parents")
		}
	}()
	s.LocalScoreParts(0, parents)
}
