package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"tends/internal/journal"
)

// writeShard journals one shard run's results to a fresh file and returns
// its path.
func writeShard(t *testing.T, scfg ScaleConfig, res *ScaleResult) string {
	t.Helper()
	hdr, err := ShardHeaderFor(scfg, res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.journal")
	j := NewShardJournal(path)
	if err := j.WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	if err := WriteShardJournal(j, scfg, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// runShardedScale runs a k-way sharded scale run entirely through the
// journal round-trip: each shard infers, journals, and the journals are
// parsed back and merged.
func runShardedScale(t *testing.T, cfg ScaleConfig, k int) *MergedScaleResult {
	t.Helper()
	var headers []*ShardHeader
	var nodeSets []map[int][]int
	for shard := 0; shard < k; shard++ {
		scfg := cfg
		scfg.ShardIndex, scfg.ShardCount = shard, k
		res, err := RunScale(context.Background(), scfg)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", shard, k, err)
		}
		h, nodes, damage, err := LoadShardJournal(writeShard(t, scfg, res), true)
		if err != nil {
			t.Fatalf("load shard %d/%d: %v", shard, k, err)
		}
		if damage != nil {
			t.Fatalf("load shard %d/%d: unexpected damage %v", shard, k, damage)
		}
		headers = append(headers, h)
		nodeSets = append(nodeSets, nodes)
	}
	merged, err := MergeScaleShards(context.Background(), cfg, headers, nodeSets)
	if err != nil {
		t.Fatalf("merge k=%d: %v", k, err)
	}
	return merged
}

// TestShardMergeDeterminism checks that k ∈ {1, 2, 4} sharded runs merge to
// a byte-identical topology, equal to the unsharded inference, for both the
// dense and sparse engines.
func TestShardMergeDeterminism(t *testing.T) {
	base := ScaleConfig{N: 60, Beta: 48, Seeds: 3, Seed: 9, Workers: 2}
	for _, sparse := range []bool{false, true} {
		cfg := base
		cfg.Sparse = sparse
		full, err := RunScale(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		wantText := full.Inference.Graph.String()
		for _, k := range []int{1, 2, 4} {
			merged := runShardedScale(t, cfg, k)
			if got := merged.Graph.String(); got != wantText {
				t.Fatalf("sparse=%v k=%d: merged topology differs from unsharded", sparse, k)
			}
			if merged.Threshold != full.Inference.Threshold {
				t.Fatalf("sparse=%v k=%d: threshold %v != %v", sparse, k, merged.Threshold, full.Inference.Threshold)
			}
			if merged.Score != full.Score {
				t.Fatalf("sparse=%v k=%d: score %+v != %+v", sparse, k, merged.Score, full.Score)
			}
		}
	}
}

// TestScaleSparseDenseIdentical checks the end-to-end scale runner produces
// the same topology through both engines.
func TestScaleSparseDenseIdentical(t *testing.T) {
	cfg := ScaleConfig{N: 80, Beta: 64, Seeds: 4, Seed: 21}
	dense, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sparse = true
	sparse, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Inference.Graph.Equal(sparse.Inference.Graph) {
		t.Fatal("sparse and dense scale runs inferred different topologies")
	}
	if dense.Score != sparse.Score {
		t.Fatalf("scores differ: %+v vs %+v", dense.Score, sparse.Score)
	}
	if dense.Score.F <= 0 {
		t.Fatalf("degenerate workload: F = %v", dense.Score.F)
	}
}

// TestBuildScaleWorkloadDeterministic pins the regeneration property the
// merge relies on.
func TestBuildScaleWorkloadDeterministic(t *testing.T) {
	cfg := ScaleConfig{N: 50, Beta: 32, Seeds: 3, Seed: 5}
	g1, s1, err := BuildScaleWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, s2, err := BuildScaleWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatal("truth networks differ across regenerations")
	}
	for p := 0; p < cfg.Beta; p++ {
		for v := 0; v < cfg.N; v++ {
			if s1.Get(p, v) != s2.Get(p, v) {
				t.Fatalf("statuses differ at (%d,%d)", p, v)
			}
		}
	}
}

// TestShardJournalValidation covers the merge's refusal paths.
func TestShardJournalValidation(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3, ShardCount: 2}
	load := func(shard int) (*ShardHeader, map[int][]int) {
		scfg := cfg
		scfg.ShardIndex = shard
		res, err := RunScale(context.Background(), scfg)
		if err != nil {
			t.Fatal(err)
		}
		h, nodes, _, err := LoadShardJournal(writeShard(t, scfg, res), true)
		if err != nil {
			t.Fatal(err)
		}
		return h, nodes
	}
	h0, n0 := load(0)
	h1, n1 := load(1)

	if _, _, err := MergeShardJournals([]*ShardHeader{h0}, []map[int][]int{n0}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing shard not detected: %v", err)
	}
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, h0}, []map[int][]int{n0, n0}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard not detected: %v", err)
	}
	bad := *h1
	bad.Seed++
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, &bad}, []map[int][]int{n0, n1}); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("config mismatch not detected: %v", err)
	}
	badTau := *h1
	badTau.Threshold *= 2
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, &badTau}, []map[int][]int{n0, n1}); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("threshold mismatch not detected: %v", err)
	}
	// Truncated journal: drop one node from shard 1.
	short := make(map[int][]int, len(n1))
	for k, v := range n1 {
		short[k] = v
	}
	for k := range short {
		delete(short, k)
		break
	}
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, h1}, []map[int][]int{n0, short}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated journal not detected: %v", err)
	}
	// Happy path.
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, h1}, []map[int][]int{n0, n1}); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}

	// Wrong-shard and out-of-range node records are rejected at load time,
	// in either mode: they were written whole, so they are not a torn tail.
	for _, node := range []int{1, 20} { // node 1 belongs to shard 1; n = 20
		path := filepath.Join(t.TempDir(), "foreign.journal")
		j := NewShardJournal(path)
		if err := j.WriteHeader(ShardHeader{ShardIndex: 0, ShardCount: 2, N: 20, Beta: 16, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendNode(node, nil); err != nil {
			t.Fatal(err)
		}
		j.Close()
		for _, strict := range []bool{false, true} {
			if _, _, _, err := LoadShardJournal(path, strict); !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), "does not belong") {
				t.Fatalf("node %d strict=%v: foreign node record not detected: %v", node, strict, err)
			}
		}
	}
}
