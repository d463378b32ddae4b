package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tends/internal/journal"
)

func walAppend(t *testing.T, w *WAL, id uint64, rows [][]int32) {
	t.Helper()
	if err := w.Append(context.Background(), id, rows); err != nil {
		t.Fatalf("append batch %d: %v", id, err)
	}
}

func replayAll(t *testing.T, path string, n int, strict bool, skip uint64, seen map[uint64]bool) (*WAL, ReplayStats, []batch, error) {
	t.Helper()
	var got []batch
	w, st, err := OpenWAL(context.Background(), path, n, strict, skip,
		func(id uint64) bool { return seen[id] },
		func(b batch) error { got = append(got, b); return nil })
	return w, st, got, err
}

// bareWALSize is the size of a WAL generation holding no batches.
func bareWALSize(t *testing.T) int64 {
	t.Helper()
	w, err := CreateWAL(filepath.Join(t.TempDir(), "bare.log"), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	return w.Size()
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := []batch{
		{id: 7, rows: [][]int32{{0, 3, 9}, {1}}},
		{id: 8, rows: [][]int32{{}, {2, 4}}},
		{id: 12, rows: [][]int32{{5, 6, 7, 8}}},
	}
	for _, b := range batches {
		walAppend(t, w, b.id, b.rows)
	}
	if err := w.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != 5 {
		t.Fatalf("rows = %d, want 5", w.Rows())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, st, got, err := replayAll(t, path, 10, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st.Batches != 3 || st.Rows != 5 || st.Truncated != 0 {
		t.Fatalf("stats = %+v, want 3 batches / 5 rows / 0 truncated", st)
	}
	if !reflect.DeepEqual(got, batches) {
		t.Fatalf("replayed %+v, want %+v", got, batches)
	}
	// Appending after replay must extend the same log cleanly.
	walAppend(t, w2, 13, [][]int32{{1, 2}})
	if err := w2.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, st, got, err = replayAll(t, path, 10, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 4 || got[3].id != 13 {
		t.Fatalf("after extend: stats %+v, last id %d", st, got[3].id)
	}
}

// TestWALTornTail cuts the log at every byte boundary inside the last
// frame and checks that non-strict replay recovers exactly the intact
// prefix, truncates the tail, and leaves the log appendable — while strict
// replay refuses and leaves the file as it was.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, 1, [][]int32{{0, 1, 2}})
	goodEnd := w.Size()
	walAppend(t, w, 2, [][]int32{{3, 4, 5, 6, 7}})
	fullEnd := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := goodEnd + 1; cut < fullEnd; cut++ {
		torn := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := replayAll(t, torn, 10, true, 0, nil); !errors.Is(err, journal.ErrCorrupt) ||
			!strings.Contains(err.Error(), fmt.Sprintf("torn tail at byte %d", goodEnd)) {
			t.Fatalf("cut %d: strict replay err = %v, want ErrCorrupt naming byte %d", cut, err, goodEnd)
		}
		if got, _ := os.ReadFile(torn); int64(len(got)) != cut {
			t.Fatalf("cut %d: strict replay modified the file", cut)
		}
		w2, st, got, err := replayAll(t, torn, 10, false, 0, nil)
		if err != nil {
			t.Fatalf("cut %d: lenient replay: %v", cut, err)
		}
		if st.Batches != 1 || got[0].id != 1 || st.Truncated != cut-goodEnd {
			t.Fatalf("cut %d: stats %+v (batches/truncated), got %+v", cut, st, got)
		}
		// The torn bytes are gone and the log accepts new frames.
		walAppend(t, w2, 3, [][]int32{{9}})
		if err := w2.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		w2.Close()
		_, st, got, err = replayAll(t, torn, 10, true, 0, nil)
		if err != nil {
			t.Fatalf("cut %d: replay after heal: %v", cut, err)
		}
		if st.Batches != 2 || got[1].id != 3 {
			t.Fatalf("cut %d: after heal stats %+v", cut, st)
		}
	}
}

// TestWALCorruptMidFrame flips a byte inside the FIRST frame: reading
// stops there, so everything from that frame on truncates away, leaving
// only the header.
func TestWALCorruptMidFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, 1, [][]int32{{0, 1, 2}})
	walAppend(t, w, 2, [][]int32{{3, 4}})
	w.Close()
	bare := bareWALSize(t)
	data, _ := os.ReadFile(path)
	data[bare+10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := replayAll(t, path, 10, true, 0, nil); !errors.Is(err, journal.ErrCorrupt) ||
		!strings.Contains(err.Error(), fmt.Sprintf("corrupt frame at byte %d", bare)) {
		t.Fatalf("strict replay err = %v, want mid-file corruption at byte %d", err, bare)
	}
	w2, st, got, err := replayAll(t, path, 10, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if st.Batches != 0 || len(got) != 0 || st.Truncated != int64(len(data))-bare || w2.Size() != bare {
		t.Fatalf("stats = %+v, size %d, want everything after byte %d truncated", st, w2.Size(), bare)
	}
}

func TestWALHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, err := CreateWAL(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, 1, [][]int32{{0}})
	w.Close()

	// Node-count mismatch is a configuration error, never a torn tail.
	if _, _, _, err := replayAll(t, path, 12, false, 0, nil); err == nil {
		t.Fatal("node mismatch accepted")
	}
	// A flipped header byte fails the header CRC even in lenient mode.
	data, _ := os.ReadFile(path)
	data[bareWALSize(t)-walHeaderLen] ^= 0x01
	bad := filepath.Join(dir, "bad.log")
	os.WriteFile(bad, data, 0o644)
	if _, _, _, err := replayAll(t, bad, 10, false, 0, nil); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("header corruption err = %v, want ErrCorrupt", err)
	}
	// A WAL in the format that predates the shared journal is refused,
	// naming the version, and left untouched.
	old := binary.LittleEndian.AppendUint32([]byte("TENDSWAL"), 1)
	old = append(old, make([]byte, 16)...)
	os.WriteFile(bad, old, 0o644)
	if _, _, _, err := replayAll(t, bad, 10, false, 0, nil); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("old-format WAL err = %v, want a version error", err)
	}
	// A frame that passes its checksum but is not a batch was written
	// wrong, not torn: refused in lenient mode too, never truncated.
	log, _, err := journal.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	log.Append([]byte{1, 2, 3})
	log.Close()
	before, _ := os.ReadFile(path)
	if _, _, _, err := replayAll(t, path, 10, false, 0, nil); !errors.Is(err, journal.ErrCorrupt) || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("undecodable batch err = %v, want ErrCorrupt at record 1", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("undecodable batch was truncated")
	}
}

func TestWALSkipAndDedup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, 1, [][]int32{{0}, {1}}) // rows 2,3 — in the snapshot window below
	walAppend(t, w, 2, [][]int32{{2}})      // row 4
	walAppend(t, w, 2, [][]int32{{2}})      // retried frame of batch 2: replay dedups
	walAppend(t, w, 3, [][]int32{{3}})      // row 5
	w.Close()

	// Snapshot holds 4 rows: baseRow 2 + batch 1's two rows are skipped.
	_, st, got, err := replayAll(t, path, 10, true, 4, map[uint64]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 2 || st.Duplicate != 1 || st.Batches != 2 {
		t.Fatalf("stats = %+v, want 2 skipped / 1 duplicate / 2 batches", st)
	}
	if got[0].id != 2 || got[1].id != 3 {
		t.Fatalf("replayed ids %d,%d, want 2,3", got[0].id, got[1].id)
	}

	// A snapshot that lands mid-batch or past the log is a history mismatch.
	if _, _, _, err := replayAll(t, path, 10, true, 3, nil); err == nil {
		t.Fatal("mid-batch snapshot row count accepted")
	}
	if _, _, _, err := replayAll(t, path, 10, true, 99, nil); err == nil {
		t.Fatal("snapshot past the log accepted")
	}
	if _, _, _, err := replayAll(t, path, 10, true, 1, nil); err == nil {
		t.Fatal("snapshot older than baseRow accepted")
	}
}

func TestWALReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, err := CreateWAL(path, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	walAppend(t, w, 1, [][]int32{{0}, {1}, {2}})
	if err := w.Reset(3); err != nil {
		t.Fatal(err)
	}
	if w.BaseRow() != 3 || w.Rows() != 0 || w.Size() != bareWALSize(t) {
		t.Fatalf("after reset: base %d rows %d size %d", w.BaseRow(), w.Rows(), w.Size())
	}
	walAppend(t, w, 2, [][]int32{{4}})
	w.Close()
	_, st, got, err := replayAll(t, path, 10, true, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 || st.Skipped != 0 || got[0].id != 2 {
		t.Fatalf("stats %+v got %+v", st, got)
	}
}
