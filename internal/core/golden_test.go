package core

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tends/internal/diffusion"
	"tends/internal/lfr"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fixtures from the current run")

// sparseGoldenStatuses simulates the sparse-regime instance behind the
// golden: a seeded n=2000 LFR network with the scale workload's defaults
// (average degree 10, degree exponent 2, mean edge probability 0.08, ten
// seed infections per process) observed over β=512 processes. Parent
// columns are a few percent dense, and the merged parent sets grow past the
// packed path's crossover (k > 6 at β=512), so both scoring paths run.
func sparseGoldenStatuses(t testing.TB) *diffusion.StatusMatrix {
	t.Helper()
	const n, beta = 2000, 512
	rng := rand.New(rand.NewSource(1))
	net, err := lfr.Generate(lfr.Params{N: n, AvgDegree: 10, DegreeExp: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ep := diffusion.NewEdgeProbs(net.Graph, 0.08, 0.05, rng)
	sim, err := diffusion.Simulate(ep, diffusion.Config{Alpha: 10.0 / n, Beta: beta}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Statuses
}

// formatInference renders the parts of a result the golden pins: τ and
// g(T) as exact float64 bit patterns, then one line per node with parents.
func formatInference(res *Result) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "threshold %016x\nscore %016x\n", math.Float64bits(res.Threshold), math.Float64bits(res.Score))
	for i, ps := range res.Parents {
		if len(ps) == 0 {
			continue
		}
		fmt.Fprintf(&buf, "%d:", i)
		for _, p := range ps {
			fmt.Fprintf(&buf, " %d", p)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSparseRegimeGolden pins the inferred parent sets and Result.Score of
// the sparse engine on a subcritical LFR instance, bit for bit. The fixture
// predates the active-row scorer: passing unchanged proves the scorer
// rewrite altered neither a parent set nor a rounding of g(T). Refresh with
// `go test -run SparseRegimeGolden -update` only after an intentional
// scoring change.
func TestSparseRegimeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("n=2000 inference in short mode")
	}
	goldenPath := filepath.Join("testdata", "sparse_lfr2000_b512.golden")
	res, err := Infer(sparseGoldenStatuses(t), Options{Sparse: true})
	if err != nil {
		t.Fatal(err)
	}
	got := formatInference(res)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("inference differs from %s:\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
	}
}
