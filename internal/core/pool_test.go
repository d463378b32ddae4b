package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referencePool is the sort-based pool builder the counting poolBuilder
// replaced, kept verbatim as the definition the production builder must
// match: it appends every positive contribution, sorts them through
// sort.Interface and merges equal values.
type referencePool struct {
	vals   []float64
	cnts   []int64
	zeros  int64
	total  int64
	maxAll float64
}

func (b *referencePool) add(v float64, c int64) {
	if c <= 0 {
		return
	}
	if b.total == 0 || v > b.maxAll {
		b.maxAll = v
	}
	b.total += c
	if v == 0 {
		b.zeros += c
		return
	}
	if v > 0 {
		b.vals = append(b.vals, v)
		b.cnts = append(b.cnts, c)
	}
}

func (b *referencePool) Len() int           { return len(b.vals) }
func (b *referencePool) Less(i, j int) bool { return b.vals[i] < b.vals[j] }
func (b *referencePool) Swap(i, j int) {
	b.vals[i], b.vals[j] = b.vals[j], b.vals[i]
	b.cnts[i], b.cnts[j] = b.cnts[j], b.cnts[i]
}

func (b *referencePool) finish() *valuePool {
	sort.Sort(b)
	// Merge equal values in place; equal runs are interchangeable, so the
	// merged pool is independent of the insertion order.
	out := 0
	for i := 0; i < len(b.vals); i++ {
		if out > 0 && b.vals[i] == b.vals[out-1] {
			b.cnts[out-1] += b.cnts[i]
			continue
		}
		b.vals[out] = b.vals[i]
		b.cnts[out] = b.cnts[i]
		out++
	}
	return &valuePool{
		pos:    b.vals[:out],
		posCnt: b.cnts[:out],
		zeros:  b.zeros,
		total:  b.total,
		maxAll: b.maxAll,
	}
}

// referenceOf builds the reference pool of a value list, multiplicity 1 each.
func referenceOf(vals []float64) *valuePool {
	var b referencePool
	for _, v := range vals {
		b.add(v, 1)
	}
	return b.finish()
}

// samePool requires exact equality: positive values by bit pattern, every
// count, and maxAll by ==. (The reference keeps a leading −0 as maxAll
// while the counting builder stores +0; the two compare equal and both
// selectors read maxAll only through maxAll + 1.)
func samePool(got, want *valuePool) error {
	if got.total != want.total || got.zeros != want.zeros {
		return fmt.Errorf("total/zeros = %d/%d, want %d/%d", got.total, got.zeros, want.total, want.zeros)
	}
	if want.total > 0 && got.maxAll != want.maxAll {
		return fmt.Errorf("maxAll = %v, want %v", got.maxAll, want.maxAll)
	}
	if len(got.pos) != len(want.pos) || len(got.posCnt) != len(want.pos) {
		return fmt.Errorf("%d runs (%d counts), want %d", len(got.pos), len(got.posCnt), len(want.pos))
	}
	for r := range want.pos {
		if math.Float64bits(got.pos[r]) != math.Float64bits(want.pos[r]) || got.posCnt[r] != want.posCnt[r] {
			return fmt.Errorf("run %d = (%v, %d), want (%v, %d)", r, got.pos[r], got.posCnt[r], want.pos[r], want.posCnt[r])
		}
	}
	return nil
}

type poolContribution struct {
	v float64
	c int64
}

// TestValuePoolMatchesReference checks the counting builder against the
// sort-based reference: directly on hand-picked contribution lists spread
// over 1, 2 and 4 merged builders, and on every engine's global and
// per-node pools at Workers 1, 2 and 4.
func TestValuePoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	growth := make([]poolContribution, 0, 3*2*poolInitialMax)
	for len(growth) < cap(growth) {
		// Distinct values past the initial table, each arriving several
		// times so runs span builders.
		v := rng.Float64() * 0.3
		for k := 0; k < 3; k++ {
			growth = append(growth, poolContribution{v, 1})
		}
	}
	rng.Shuffle(len(growth), func(i, j int) { growth[i], growth[j] = growth[j], growth[i] })
	negZero := math.Copysign(0, -1)
	builderCases := []struct {
		name  string
		parts []poolContribution
	}{
		{"empty", nil},
		{"all negative", []poolContribution{{-0.5, 1}, {-1e-3, 4}, {-2, 1}, {-1e-3, 2}}},
		{"all zero", []poolContribution{{0, 3}, {0, 1}, {0, 7}}},
		{"negative zero", []poolContribution{{negZero, 2}, {-0.1, 1}, {0, 1}, {negZero, 1}}},
		{"negative zero then positive", []poolContribution{{negZero, 1}, {0.25, 2}, {negZero, 1}}},
		{"runs with count > 1", []poolContribution{{0.5, 3}, {0.125, 2}, {0.5, 4}, {-0.3, 5}, {0.125, 1}, {0, 2}}},
		{"ignored counts", []poolContribution{{0.5, 0}, {0.25, -2}, {-1, 0}, {0.25, 1}}},
		{"same value everywhere", []poolContribution{{0.2, 1}, {0.2, 1}, {0.2, 1}, {0.2, 1}, {0.2, 1}, {0.2, 1}, {0.2, 1}, {0.2, 1}}},
		{"extremes", []poolContribution{{math.SmallestNonzeroFloat64, 1}, {math.MaxFloat64, 2}, {math.Inf(1), 1}, {math.Inf(-1), 1}, {1, 1}}},
		{"table growth", growth},
	}
	for _, tc := range builderCases {
		var ref referencePool
		for _, p := range tc.parts {
			ref.add(p.v, p.c)
		}
		want := ref.finish()
		for _, workers := range []int{1, 2, 4} {
			// Contributions are dealt round-robin, so equal values reach
			// several builders; the builders start small so large cases
			// grow their tables repeatedly.
			builders := make([]*poolBuilder, workers)
			for w := range builders {
				builders[w] = newPoolBuilder(0)
			}
			for k, p := range tc.parts {
				builders[k%workers].add(p.v, p.c)
			}
			for _, b := range builders[1:] {
				builders[0].merge(b)
			}
			if err := samePool(builders[0].finish(), want); err != nil {
				t.Errorf("%s, %d builders: %v", tc.name, workers, err)
			}
		}
	}
	if len(growth)/3 <= poolInitialMax {
		t.Fatalf("table growth case has %d distinct values, need more than %d", len(growth)/3, poolInitialMax)
	}

	engineCases := []struct {
		name        string
		n, beta     int
		density     float64
		traditional bool
	}{
		{"single node", 1, 20, 0.3, false},
		{"no infections", 12, 30, 0, false},
		{"sparse", 40, 64, 0.05, false},
		{"dense", 30, 50, 0.4, false},
		{"traditional", 25, 40, 0.2, true},
		{"wide", 150, 120, 0.3, false},
	}
	ctx := context.Background()
	for ci, tc := range engineCases {
		sm := sparseRandomStatus(tc.n, tc.beta, tc.density, int64(300+ci))
		inc := NewIncrementalCounts(tc.n, tc.traditional)
		for p := 0; p < tc.beta; p++ {
			var row []int
			for v := 0; v < tc.n; v++ {
				if sm.Get(p, v) {
					row = append(row, v)
				}
			}
			if err := inc.AppendRow(row); err != nil {
				t.Fatal(err)
			}
		}
		dense1 := ComputeIMIWorkers(sm, tc.traditional, 1)
		want := referenceOf(dense1.PairValues())
		check := func(engine string, got *valuePool) {
			t.Helper()
			if err := samePool(got, want); err != nil {
				t.Errorf("%s, %s pool: %v", tc.name, engine, err)
			}
		}
		check("incremental", inc.Source().valuePool())
		for _, workers := range []int{1, 2, 4} {
			dense := ComputeIMIWorkers(sm, tc.traditional, workers)
			sp, err := ComputeSparseIMIContext(ctx, sm, tc.traditional, workers)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("dense workers=%d", workers), dense.valuePool())
			check(fmt.Sprintf("sparse workers=%d", workers), sp.valuePool())
			// The sparse reference reads the engine's own materialized
			// triangle, independent of the dense engine.
			if err := samePool(sp.valuePool(), referenceOf(sp.PairValues())); err != nil {
				t.Errorf("%s, sparse workers=%d vs its own triangle: %v", tc.name, workers, err)
			}
		}
		src := inc.Source()
		sp := ComputeSparseIMI(sm, tc.traditional)
		for i := 0; i < tc.n; i++ {
			vals := make([]float64, 0, tc.n-1)
			for j := 0; j < tc.n; j++ {
				if j != i {
					vals = append(vals, dense1.At(i, j))
				}
			}
			nodeWant := referenceOf(vals)
			for engine, got := range map[string]*valuePool{
				"dense": dense1.nodePool(i), "sparse": sp.nodePool(i), "incremental": src.nodePool(i),
			} {
				if err := samePool(got, nodeWant); err != nil {
					t.Errorf("%s, %s node %d pool: %v", tc.name, engine, i, err)
				}
			}
		}
	}
}
