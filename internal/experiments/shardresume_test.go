package experiments

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tends/internal/journal"
)

// shardJournal runs one shard and writes its complete journal, returning
// the path and the file bytes.
func shardJournal(t *testing.T, cfg ScaleConfig, shard, k int) (string, []byte) {
	t.Helper()
	scfg := cfg
	scfg.ShardIndex, scfg.ShardCount = shard, k
	res, err := RunScale(context.Background(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	path := writeShard(t, scfg, res)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// recordOffsets returns the byte offset of every record frame in a clean
// journal, plus the end offset last, by walking its length prefixes.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	const prefix = 12 // magic + version
	off := prefix + 8 + int(binary.LittleEndian.Uint32(data[prefix:]))
	var offs []int
	for off < len(data) {
		offs = append(offs, off)
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	if off != len(data) {
		t.Fatalf("journal frames end at %d of %d bytes", off, len(data))
	}
	return append(offs, off)
}

// TestLoadShardJournalTornTail checks the torn-tail/corruption distinction:
// a partial final frame is a torn tail at its exact offset, the same damage
// followed by more frames is mid-file corruption, and strict mode refuses
// either with journal.ErrCorrupt and the byte position.
func TestLoadShardJournalTornTail(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	_, full := shardJournal(t, cfg, 0, 2)
	offs := recordOffsets(t, full)
	cut := offs[len(offs)-2] // start of the last node record

	// A kill mid-append leaves a partial final frame.
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.journal")
	os.WriteFile(torn, full[:cut+5], 0o644)
	h, nodes, damage, err := LoadShardJournal(torn, false)
	if err != nil || h == nil {
		t.Fatalf("lenient load of torn journal failed: %v", err)
	}
	if damage == nil || !damage.Torn || damage.Offset != int64(cut) {
		t.Fatalf("torn tail not classified: %v, want torn at %d", damage, cut)
	}
	if len(nodes) != ShardOwnedNodes(cfg.N, 0, 2)-1 {
		t.Fatalf("torn journal kept %d nodes, want %d", len(nodes), ShardOwnedNodes(cfg.N, 0, 2)-1)
	}
	if got, _ := os.ReadFile(torn); len(got) != cut+5 {
		t.Fatal("LoadShardJournal modified the file")
	}

	// The same damage mid-file (frames after it) is corruption, not a tail.
	mid := filepath.Join(dir, "mid.journal")
	bad := append(append([]byte(nil), full[:cut]...), 0xff, 0, 0, 0, 0, 0, 0, 0, 0)
	os.WriteFile(mid, append(bad, full[offs[1]:]...), 0o644)
	if _, _, damage, err = LoadShardJournal(mid, false); err != nil || damage == nil || damage.Torn || damage.Offset != int64(cut) {
		t.Fatalf("mid-file damage: %v (err %v), want corruption at %d", damage, err, cut)
	}

	// Strict mode refuses the damaged frame with its position.
	_, _, _, err = LoadShardJournal(torn, true)
	if !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("byte %d", cut)) {
		t.Fatalf("strict load error = %v, want ErrCorrupt at byte %d", err, cut)
	}
}

// TestReadShardHeader checks the cheap header peek used for up-front
// shard-set validation.
func TestReadShardHeader(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	path, _ := shardJournal(t, cfg, 1, 2)
	h, err := ReadShardHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if h.ShardIndex != 1 || h.ShardCount != 2 || h.N != 20 {
		t.Fatalf("header = %+v", h)
	}
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.journal")
	os.WriteFile(empty, nil, 0o644)
	if _, err := ReadShardHeader(empty); err == nil {
		t.Fatal("empty journal accepted")
	}
	ckpt := filepath.Join(dir, "ckpt.journal")
	j, err := CreateJournal(ckpt, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := ReadShardHeader(ckpt); err == nil || !strings.Contains(err.Error(), "shard journal header") {
		t.Fatalf("checkpoint journal accepted as a shard journal: %v", err)
	}
	old := filepath.Join(dir, "old.jsonl")
	os.WriteFile(old, []byte(`{"type":"shard_header","version":1,"shard_index":0,"shard_count":1,"n":5}`+"\n"), 0o644)
	if _, err := ReadShardHeader(old); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("old-format journal accepted: %v", err)
	}
	invalid := filepath.Join(dir, "invalid.journal")
	sj := NewShardJournal(invalid)
	if err := sj.WriteHeader(ShardHeader{ShardIndex: 2, ShardCount: 2, N: 5}); err != nil {
		t.Fatal(err)
	}
	sj.Close()
	if _, err := ReadShardHeader(invalid); err == nil || !strings.Contains(err.Error(), "invalid shard identity") {
		t.Fatalf("invalid shard identity accepted: %v", err)
	}
}

// TestOpenShardResume checks the on-disk continuation path: a torn tail is
// truncated away and appending afterwards yields journal bytes identical to
// an uninterrupted run.
func TestOpenShardResume(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	fullPath, full := shardJournal(t, cfg, 0, 2)
	offs := recordOffsets(t, full)
	if len(offs) < 4 {
		t.Fatalf("journal too short to cut: %d records", len(offs)-1)
	}

	// Keep the header and all but the last two nodes, then a torn fragment.
	keep := full[:offs[len(offs)-3]]
	partial := append(append([]byte(nil), keep...), 30, 0, 0, 0, 7, 7)

	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0.journal")
	if err := os.WriteFile(path, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenShardResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TruncatedBytes != int64(len(partial)-len(keep)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, len(partial)-len(keep))
	}
	// Append the two missing node records by replaying the full journal's
	// records for nodes the partial set lacks.
	_, allNodes, _, err := LoadShardJournal(fullPath, true)
	if err != nil {
		t.Fatal(err)
	}
	missing := []int{}
	for n := range allNodes {
		if _, ok := rs.Nodes[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) != 2 {
		t.Fatalf("resume found %d missing nodes, want 2", len(missing))
	}
	// The full journal appended nodes in ascending order; replay in the same
	// order for byte identity.
	if missing[0] > missing[1] {
		missing[0], missing[1] = missing[1], missing[0]
	}
	for _, n := range missing {
		if err := rs.Journal.AppendNode(n, allNodes[n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("resumed journal is not byte-identical to an uninterrupted one")
	}

	// Corruption beyond a torn tail refuses to resume: a damaged first
	// record with intact records after it, and a file that is not a journal.
	mid := append([]byte(nil), full...)
	mid[offs[0]+10] ^= 0xff
	for name, data := range map[string][]byte{
		"mid.journal":  mid,
		"junk.journal": append([]byte("garbage not a journal\n"), full...),
	} {
		badPath := filepath.Join(dir, name)
		if err := os.WriteFile(badPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenShardResume(badPath); !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("%s: corrupt journal resume error = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := OpenShardResume(filepath.Join(dir, "absent.journal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent journal resume error = %v, want ErrNotExist", err)
	}
}

// TestRunShardWorkerResume checks the worker-level contract the supervisor
// depends on: a shard whose journal was cut mid-run continues node-for-node
// and ends byte-identical to an uninterrupted worker run.
func TestRunShardWorkerResume(t *testing.T) {
	cfg := ScaleConfig{N: 30, Beta: 24, Seeds: 2, Seed: 7, ShardIndex: 1, ShardCount: 3}
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.journal")
	if _, err := RunShardWorker(context.Background(), cfg, clean, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// A "killed" worker: the clean journal cut after a few records, with a
	// torn fragment appended.
	keep := want[:recordOffsets(t, want)[2]]
	partial := append(append([]byte(nil), keep...), 40, 0, 0, 0, 1)
	resumed := filepath.Join(dir, "resumed.journal")
	if err := os.WriteFile(resumed, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunShardWorker(context.Background(), cfg, resumed, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed worker journal differs from an uninterrupted run")
	}

	// The in-memory result folds the resumed nodes back in: compare to a
	// plain shard run.
	plain, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inference.Graph.Equal(plain.Inference.Graph) {
		t.Fatal("resumed worker topology differs from a plain shard run")
	}

	// Corrupt-beyond-torn-tail self-heals: the worker restarts fresh and
	// still produces the identical journal.
	corrupt := filepath.Join(dir, "corrupt.journal")
	if err := os.WriteFile(corrupt, append([]byte("garbage\n"), want[:40]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardWorker(context.Background(), cfg, corrupt, true); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("self-healed worker journal differs from an uninterrupted run")
	}
}

// TestMergeShardJournalsDegraded checks the degraded merge's accounting:
// missing shards yield exactly their owned nodes as missing, duplicates must
// agree, and MergedNodes + missing always balances to N.
func TestMergeShardJournalsDegraded(t *testing.T) {
	cfg := ScaleConfig{N: 21, Beta: 16, Seeds: 2, Seed: 3}
	k := 3
	var headers []*ShardHeader
	var nodeSets []map[int][]int
	for shard := 0; shard < k; shard++ {
		path, _ := shardJournal(t, cfg, shard, k)
		h, nodes, _, err := LoadShardJournal(path, true)
		if err != nil {
			t.Fatal(err)
		}
		headers = append(headers, h)
		nodeSets = append(nodeSets, nodes)
	}

	// Complete set: report says so.
	_, _, rep, err := MergeShardJournalsDegraded(headers, nodeSets)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.MergedNodes != cfg.N || len(rep.MissingNodes) != 0 {
		t.Fatalf("complete merge report: %+v", rep)
	}

	// Drop shard 1: its owned nodes are exactly the missing set.
	parents, _, rep, err := MergeShardJournalsDegraded(
		[]*ShardHeader{headers[0], headers[2]}, []map[int][]int{nodeSets[0], nodeSets[2]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("degraded merge reported complete")
	}
	if len(rep.MissingShards) != 1 || rep.MissingShards[0] != 1 {
		t.Fatalf("missing shards = %v, want [1]", rep.MissingShards)
	}
	if rep.MergedNodes+len(rep.MissingNodes) != rep.N {
		t.Fatalf("accounting does not balance: %d merged + %d missing != %d", rep.MergedNodes, len(rep.MissingNodes), rep.N)
	}
	for i, n := range rep.MissingNodes {
		if n%k != 1 {
			t.Fatalf("missing node %d does not belong to shard 1", n)
		}
		if i > 0 && rep.MissingNodes[i-1] >= n {
			t.Fatalf("missing nodes not ascending: %v", rep.MissingNodes)
		}
		if len(parents[n]) != 0 {
			t.Fatalf("missing node %d has parents %v", n, parents[n])
		}
	}
	if len(rep.MissingNodes) != ShardOwnedNodes(cfg.N, 1, k) {
		t.Fatalf("%d missing nodes, shard 1 owns %d", len(rep.MissingNodes), ShardOwnedNodes(cfg.N, 1, k))
	}

	// Duplicate journals (a hedge and its primary) agree: tolerated.
	if _, _, rep, err = MergeShardJournalsDegraded(
		[]*ShardHeader{headers[0], headers[0], headers[1], headers[2]},
		[]map[int][]int{nodeSets[0], nodeSets[0], nodeSets[1], nodeSets[2]}); err != nil {
		t.Fatalf("agreeing duplicates rejected: %v", err)
	} else if !rep.Complete {
		t.Fatalf("duplicate merge report: %+v", rep)
	}

	// Disagreeing duplicates are a hard error.
	bad := map[int][]int{}
	for n, ps := range nodeSets[0] {
		bad[n] = ps
	}
	for n := range bad {
		bad[n] = append([]int{19}, bad[n]...)
		break
	}
	if _, _, _, err := MergeShardJournalsDegraded(
		[]*ShardHeader{headers[0], headers[0]}, []map[int][]int{nodeSets[0], bad}); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("disagreeing duplicates accepted: %v", err)
	}

	// A truncated journal degrades (its absent nodes go missing) instead of
	// erroring like the strict merge.
	short := map[int][]int{}
	for n, ps := range nodeSets[1] {
		short[n] = ps
	}
	for n := range short {
		delete(short, n)
		break
	}
	_, _, rep, err = MergeShardJournalsDegraded(headers, []map[int][]int{nodeSets[0], short, nodeSets[2]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || len(rep.MissingNodes) != 1 || rep.MergedNodes != cfg.N-1 {
		t.Fatalf("truncated-journal report: %+v", rep)
	}
}
