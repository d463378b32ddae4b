package experiments

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tends/internal/journal"
)

// recordFrames returns the journal frames for payloads, exactly as they
// follow the header in a file: seed material for the journal fuzzers.
func recordFrames(tb testing.TB, payloads ...string) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "frames.journal")
	log, err := journal.Create(path, []byte("h"))
	if err != nil {
		tb.Fatal(err)
	}
	start := log.Size()
	for _, p := range payloads {
		if err := log.Append([]byte(p)); err != nil {
			tb.Fatal(err)
		}
	}
	log.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data[start:]
}

// withTail writes a file of head followed by tail and returns its path.
func withTail(t *testing.T, head, tail []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	if err := os.WriteFile(path, append(append([]byte(nil), head...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzLoadShardJournal appends arbitrary bytes to a valid shard-journal
// header and loads the result. Nothing may panic; every refusal wraps
// journal.ErrCorrupt; surviving nodes are in range and owned by the shard;
// the damage offset lies inside the record region; strict and lenient loads
// agree on the damage; and the resume path agrees with the load about which
// damage is recoverable, healing a torn tail into a journal that loads
// strictly with the same nodes.
func FuzzLoadShardJournal(f *testing.F) {
	f.Add(recordFrames(f, `{"type":"node","node":0,"parents":[2,4]}`, `{"type":"node","node":2,"parents":[]}`))
	torn := recordFrames(f, `{"type":"node","node":0,"parents":[2]}`, `{"type":"node","node":4,"parents":[0]}`)
	f.Add(torn[:len(torn)-3])
	f.Add(recordFrames(f, `{"type":"node","node":1,"parents":[]}`))
	f.Add(recordFrames(f, "not json"))
	f.Add(make([]byte, 12))

	hdrPath := filepath.Join(f.TempDir(), "header.journal")
	sj := NewShardJournal(hdrPath)
	if err := sj.WriteHeader(ShardHeader{ShardIndex: 0, ShardCount: 2, N: 10, Beta: 8, Seed: 3}); err != nil {
		f.Fatal(err)
	}
	sj.Close()
	head, err := os.ReadFile(hdrPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := withTail(t, head, tail)
		size := int64(len(head) + len(tail))
		header, nodes, damage, err := LoadShardJournal(path, false)
		_, _, _, strictErr := LoadShardJournal(path, true)
		if got, _ := os.ReadFile(path); !bytes.Equal(got[len(head):], tail) {
			t.Fatal("load modified the journal")
		}
		if d := damage; d != nil && (d.Offset < int64(len(head)) || d.Offset >= size) {
			t.Fatalf("damage %+v outside the %d-byte record region", d, len(tail))
		}
		rs, resumeErr := OpenShardResume(path)
		if rs != nil {
			defer rs.Close()
		}
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) || !errors.Is(strictErr, journal.ErrCorrupt) || !errors.Is(resumeErr, journal.ErrCorrupt) {
				t.Fatalf("refusal does not wrap ErrCorrupt in every mode: lenient %v, strict %v, resume %v", err, strictErr, resumeErr)
			}
			return
		}
		if header == nil {
			t.Fatal("nil header without error")
		}
		for node, parents := range nodes {
			if node < 0 || node >= header.N {
				t.Fatalf("out-of-range node %d survived validation (n=%d)", node, header.N)
			}
			if node%header.ShardCount != header.ShardIndex {
				t.Fatalf("foreign node %d survived validation (shard %d/%d)", node, header.ShardIndex, header.ShardCount)
			}
			if parents == nil {
				t.Fatalf("node %d has nil parents", node)
			}
		}
		// Policy consistency: a damage-free lenient load must pass strict,
		// and any damage must fail it.
		if (strictErr != nil) != (damage != nil) {
			t.Fatalf("strict err %v disagrees with lenient damage %+v", strictErr, damage)
		}
		// Resume recovers exactly a torn tail; mid-file damage restarts the
		// shard.
		if damage != nil && !damage.Torn {
			if !errors.Is(resumeErr, journal.ErrCorrupt) {
				t.Fatalf("resume accepted mid-file damage %+v: %v", damage, resumeErr)
			}
			return
		}
		if resumeErr != nil {
			t.Fatalf("resume refused a recoverable journal (damage %+v): %v", damage, resumeErr)
		}
		wantCut := int64(0)
		if damage != nil {
			wantCut = size - damage.Offset
		}
		if rs.TruncatedBytes != wantCut {
			t.Fatalf("resume cut %d bytes, want %d", rs.TruncatedBytes, wantCut)
		}
		_, healed, _, err := LoadShardJournal(path, true)
		if err != nil {
			t.Fatalf("resumed journal fails a strict load: %v", err)
		}
		if !maps.EqualFunc(healed, nodes, slices.Equal) || !maps.EqualFunc(rs.Nodes, nodes, slices.Equal) {
			t.Fatalf("resume kept %d nodes and healed file holds %d, load saw %d", len(rs.Nodes), len(healed), len(nodes))
		}
	})
}
