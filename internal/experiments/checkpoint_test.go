package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tends/internal/journal"
)

// newJournal starts a checkpoint journal in a fresh temp dir.
func newJournal(tb testing.TB, seed int64, repeats int) (*Journal, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "run.journal")
	j, err := CreateJournal(path, seed, repeats)
	if err != nil {
		tb.Fatal(err)
	}
	return j, path
}

// loadJournal reads a checkpoint journal the way a resume does (so a
// lenient load truncates any damage) and closes it again.
func loadJournal(t *testing.T, path string, strict bool) (*Checkpoint, error) {
	t.Helper()
	j, cp, err := ResumeJournal(path, strict)
	if err != nil {
		return nil, err
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return cp, nil
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestLoadJournalSkipsCorruptLines checks that damage ends the read at its
// exact byte offset: a torn tail keeps every cell before it, mid-file
// corruption drops every cell from the damaged frame on, and the restored
// cells round-trip exactly.
func TestLoadJournalSkipsCorruptLines(t *testing.T) {
	j, path := newJournal(t, 7, 3)
	good := Measurement{Figure: "Fig1", Point: "n=200", Algorithm: AlgoTENDS,
		F: 0.875, FStd: 0.01, Precision: 0.9, Recall: 0.85, Runtime: 1234 * time.Millisecond, Completed: 3}
	if err := j.Append(0, good); err != nil {
		t.Fatal(err)
	}
	secondAt := fileSize(t, path)
	failed := Measurement{Figure: "Fig1", Point: "n=200", Algorithm: AlgoNetRate,
		FailedRepeats: 3, Err: errors.New("injected, with comma")}
	if err := j.Append(0, failed); err != nil {
		t.Fatal(err)
	}
	j.Close()
	cleanLen := fileSize(t, path)
	clean, _ := os.ReadFile(path)

	// A journal cut off mid-append: a partial frame after the clean prefix.
	appendBytes(t, path, []byte{40, 0, 0, 0, 1, 2, 3, 4, '{', '"', 't'})
	cp, err := loadJournal(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Header.Seed != 7 || cp.Header.Repeats != 3 {
		t.Fatalf("header = %+v", cp.Header)
	}
	if d := cp.Damage; d == nil || !d.Torn || d.Offset != cleanLen || !strings.Contains(d.Error(), fmt.Sprintf("byte %d", cleanLen)) {
		t.Fatalf("damage = %v, want torn tail at byte %d", d, cleanLen)
	}
	if len(cp.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cp.Cells))
	}
	got := cp.Cells[CellKey{Figure: "Fig1", PointIndex: 0, Algorithm: AlgoTENDS}]
	if got.F != good.F || got.FStd != good.FStd || got.Precision != good.Precision ||
		got.Recall != good.Recall || got.Runtime != good.Runtime || got.Completed != good.Completed {
		t.Fatalf("cell round-trip: got %+v, want %+v", got, good)
	}
	gotFailed := cp.Cells[CellKey{Figure: "Fig1", PointIndex: 0, Algorithm: AlgoNetRate}]
	if gotFailed.Err == nil || gotFailed.Err.Error() != "injected, with comma" {
		t.Fatalf("error round-trip: %v", gotFailed.Err)
	}
	if fileSize(t, path) != cleanLen {
		t.Fatalf("lenient load left %d bytes, want the %d-byte intact prefix", fileSize(t, path), cleanLen)
	}

	// Mid-file corruption: a flipped byte in the second cell's frame stops
	// the read there, not torn, even though more bytes follow it.
	mid := append([]byte(nil), clean...)
	mid[secondAt+12] ^= 0xff
	os.WriteFile(path, append(mid, clean[secondAt:]...), 0o644)
	cp, err = loadJournal(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if d := cp.Damage; d == nil || d.Torn || d.Offset != secondAt {
		t.Fatalf("damage = %v, want corruption at byte %d", d, secondAt)
	}
	if len(cp.Cells) != 1 {
		t.Fatalf("cells after mid-file damage = %d, want 1", len(cp.Cells))
	}
}

func TestLoadJournalRejectsHeaderProblems(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.journal")
	os.WriteFile(empty, nil, 0o644)
	if _, err := loadJournal(t, empty, false); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("empty journal: err = %v, want ErrCorrupt (no header)", err)
	}
	// A journal from before the shared format is refused, naming the version.
	old := filepath.Join(dir, "old.jsonl")
	os.WriteFile(old, []byte(`{"type":"header","version":1,"seed":1,"repeats":1}`+"\n"), 0o644)
	if _, err := loadJournal(t, old, false); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("old-format journal: err = %v, want a version error", err)
	}
	// A journal of another kind is not a checkpoint.
	shard := filepath.Join(dir, "shard.journal")
	sj := NewShardJournal(shard)
	if err := sj.WriteHeader(ShardHeader{ShardCount: 1, N: 3}); err != nil {
		t.Fatal(err)
	}
	sj.Close()
	if _, err := loadJournal(t, shard, false); err == nil || !strings.Contains(err.Error(), "checkpoint journal header") {
		t.Fatalf("shard journal loaded as checkpoint: %v", err)
	}
	// A record that passes its checksum but is not a valid cell was written
	// whole, so it is refused in both modes rather than truncated.
	_, path := newJournal(t, 1, 1)
	log, _, err := journal.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte(`{"type":"cell","figure":"","point_index":-2,"algorithm":""}`))
	log.Close()
	for _, strict := range []bool{false, true} {
		if _, err := loadJournal(t, path, strict); !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), "record 0") {
			t.Fatalf("strict=%v: invalid cell err = %v", strict, err)
		}
	}
}

// TestLoadJournalStrict checks the strict/lenient policy split the journal
// shares with the service WAL: lenient truncates damage and reports its
// position, strict refuses it with journal.ErrCorrupt and the byte offset
// and leaves the file alone.
func TestLoadJournalStrict(t *testing.T) {
	j, path := newJournal(t, 1, 1)
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p", Algorithm: AlgoTENDS, F: 0.5}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	cleanLen := fileSize(t, path)

	// A clean journal loads identically in both modes.
	if cp, err := loadJournal(t, path, true); err != nil || cp.Damage != nil || len(cp.Cells) != 1 {
		t.Fatalf("strict load of clean journal: %+v err=%v", cp, err)
	}

	appendBytes(t, path, []byte{9, 0, 0}) // torn tail
	torn, _ := os.ReadFile(path)
	_, err := loadJournal(t, path, true)
	if !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("strict load of torn journal: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("byte %d", cleanLen)) {
		t.Fatalf("strict error %q does not name the damaged byte", err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, torn) {
		t.Fatal("strict load modified the journal")
	}
	// The same journal remains loadable leniently.
	if cp, err := loadJournal(t, path, false); err != nil || cp.Damage == nil || len(cp.Cells) != 1 {
		t.Fatalf("lenient load of torn journal: %+v err=%v", cp, err)
	}
}

// TestResumeJournalAppendsAfterTornTail is the regression for cells lost
// after resuming a torn checkpoint: the torn tail must be truncated before
// the resumed run appends, or the next cell is glued onto it and lost.
func TestResumeJournalAppendsAfterTornTail(t *testing.T) {
	j, path := newJournal(t, 1, 1)
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p0", Algorithm: AlgoTENDS, F: 0.25}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	appendBytes(t, path, []byte{60, 0, 0, 0, 0xde, 0xad, '{', '"', 't', 'y'}) // half a record

	j, cp, err := ResumeJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Damage == nil || !cp.Damage.Torn || len(cp.Cells) != 1 {
		t.Fatalf("resume: damage %v, %d cells", cp.Damage, len(cp.Cells))
	}
	if err := j.Append(2, Measurement{Figure: "Fig1", Point: "p2", Algorithm: AlgoTENDS, F: 0.75}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	cp, err = loadJournal(t, path, true)
	if err != nil {
		t.Fatalf("resumed journal is damaged: %v", err)
	}
	if len(cp.Cells) != 2 || cp.Cells[CellKey{Figure: "Fig1", PointIndex: 2, Algorithm: AlgoTENDS}].F != 0.75 {
		t.Fatalf("resumed journal holds %d cells: %+v", len(cp.Cells), cp.Cells)
	}
}

func TestLoadJournalLastRecordWins(t *testing.T) {
	j, path := newJournal(t, 1, 1)
	key := CellKey{Figure: "Fig1", PointIndex: 0, Algorithm: AlgoTENDS}
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p", Algorithm: AlgoTENDS, F: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p", Algorithm: AlgoTENDS, F: 0.9}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	cp, err := loadJournal(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Cells[key].F != 0.9 {
		t.Fatalf("later record should win: F = %v", cp.Cells[key].F)
	}
}

// TestJournalPhaseRoundTrip checks that a cell's phase breakdown survives a
// journal write/load cycle, so a resumed run keeps its timing diagnostics.
func TestJournalPhaseRoundTrip(t *testing.T) {
	j, path := newJournal(t, 1, 1)
	m := Measurement{Figure: "Fig1", Point: "n=200", Algorithm: AlgoTENDS,
		F: 0.5, Runtime: 30 * time.Millisecond, Completed: 1,
		PhaseWorkload: 5 * time.Millisecond, PhaseInfer: 28 * time.Millisecond, PhaseMetrics: 2 * time.Millisecond}
	if err := j.Append(2, m); err != nil {
		t.Fatal(err)
	}
	j.Close()
	cp, err := loadJournal(t, path, false)
	if err != nil {
		t.Fatal(err)
	}
	got := cp.Cells[CellKey{Figure: "Fig1", PointIndex: 2, Algorithm: AlgoTENDS}]
	if got.PhaseWorkload != m.PhaseWorkload || got.PhaseInfer != m.PhaseInfer || got.PhaseMetrics != m.PhaseMetrics {
		t.Fatalf("phase round-trip: got %+v, want %+v", got, m)
	}
}

// FuzzLoadJournal appends arbitrary bytes to a valid checkpoint header and
// resumes the result. Nothing may panic; every refusal wraps
// journal.ErrCorrupt in both modes; restored cells have valid keys; strict
// and lenient agree on the damage; and a lenient resume heals the file into
// one that resumes strictly with the same cells.
func FuzzLoadJournal(f *testing.F) {
	f.Add(recordFrames(f,
		`{"type":"cell","figure":"Fig1","point_index":0,"point":"n=200","algorithm":"TENDS","f":0.5,"completed":2}`,
		`{"type":"cell","figure":"Fig1","point_index":1,"point":"n=400","algorithm":"NetRate","error":"boom"}`))
	torn := recordFrames(f, `{"type":"cell","figure":"Fig1","point_index":0,"point":"p","algorithm":"TENDS"}`)
	f.Add(torn[:len(torn)-3])
	f.Add(recordFrames(f, `{"type":"mystery"}`))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})

	j, hdrPath := newJournal(f, 1, 2)
	j.Close()
	head, err := os.ReadFile(hdrPath)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, tail []byte) {
		path := withTail(t, head, tail)
		size := int64(len(head) + len(tail))
		_, strictErr := loadJournal(t, path, true)
		if got, _ := os.ReadFile(path); !bytes.Equal(got[len(head):], tail) {
			t.Fatal("strict resume modified the journal")
		}
		cp, err := loadJournal(t, path, false)
		if err != nil {
			if !errors.Is(err, journal.ErrCorrupt) || !errors.Is(strictErr, journal.ErrCorrupt) {
				t.Fatalf("refusal does not wrap ErrCorrupt in both modes: lenient %v, strict %v", err, strictErr)
			}
			return
		}
		if cp.Header.Seed != 1 || cp.Header.Repeats != 2 {
			t.Fatalf("header = %+v", cp.Header)
		}
		for key := range cp.Cells {
			if key.Figure == "" || key.Algorithm == "" || key.PointIndex < 0 {
				t.Fatalf("invalid cell key survived validation: %+v", key)
			}
		}
		// Policy consistency: a damage-free journal must resume strictly
		// too, and any damage must fail a strict resume.
		if (strictErr != nil) != (cp.Damage != nil) {
			t.Fatalf("strict err %v disagrees with lenient damage %+v", strictErr, cp.Damage)
		}
		wantSize := size
		if d := cp.Damage; d != nil {
			if d.Offset < int64(len(head)) || d.Offset >= size {
				t.Fatalf("damage %+v outside the %d-byte record region", d, len(tail))
			}
			wantSize = d.Offset
		}
		if got := fileSize(t, path); got != wantSize {
			t.Fatalf("lenient resume left %d bytes, want %d", got, wantSize)
		}
		healed, err := loadJournal(t, path, true)
		if err != nil {
			t.Fatalf("healed journal fails a strict resume: %v", err)
		}
		if len(healed.Cells) != len(cp.Cells) {
			t.Fatalf("healed journal holds %d cells, lenient resume restored %d", len(healed.Cells), len(cp.Cells))
		}
	})
}
