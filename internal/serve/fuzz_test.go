package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tends/internal/journal"
)

// FuzzBatchPayload feeds arbitrary bytes to the batch decoder. It must
// never panic or over-allocate, and anything it accepts must re-encode to
// the exact input — the codec admits only canonical encodings.
func FuzzBatchPayload(f *testing.F) {
	f.Add(appendBatchPayload(nil, 7, [][]int32{{0, 3, 9}, {}, {1}}))
	f.Add(appendBatchPayload(nil, 0, nil))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatchPayload(data, 64)
		if err != nil {
			return
		}
		re := appendBatchPayload(nil, b.id, b.rows)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical payload: %x re-encodes to %x", data, re)
		}
	})
}

// FuzzWALReplay writes a valid header followed by arbitrary bytes and
// replays. Lenient replay must never panic and may refuse the log only for
// a record that passes its checksum yet is not a batch (written wrong, not
// torn); any other tail is recoverable by truncation, and the healed log
// must replay identically in strict mode afterwards.
func FuzzWALReplay(f *testing.F) {
	frame := func(batches ...batch) []byte {
		path := filepath.Join(f.TempDir(), "seed.log")
		w, err := CreateWAL(path, 32, 0)
		if err != nil {
			f.Fatal(err)
		}
		start := w.Size()
		for _, b := range batches {
			if err := w.Append(context.Background(), b.id, b.rows); err != nil {
				f.Fatal(err)
			}
		}
		w.Close()
		data, _ := os.ReadFile(path)
		return data[start:]
	}
	f.Add(frame(batch{id: 1, rows: [][]int32{{0, 5}, {2}}}))
	f.Add(frame(batch{id: 1, rows: [][]int32{{0}}}, batch{id: 2, rows: [][]int32{{1, 2, 3}}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := CreateWAL(path, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		full, _ := os.ReadFile(path)
		if err := os.WriteFile(path, append(full, tail...), 0o644); err != nil {
			t.Fatal(err)
		}

		var rows int64
		w2, st, err := OpenWAL(context.Background(), path, 32, false, 0, nil,
			func(b batch) error { rows += int64(len(b.rows)); return nil })
		if err != nil {
			c, rerr := journal.Read(path)
			if rerr != nil || !errors.Is(err, journal.ErrCorrupt) || !slices.ContainsFunc(c.Records, func(p []byte) bool {
				_, derr := decodeBatchPayload(p, 32)
				return derr != nil
			}) {
				t.Fatalf("lenient replay must recover unless a checksummed record is not a batch: %v", err)
			}
			return
		}
		w2.Close()
		if st.Rows != rows {
			t.Fatalf("stats say %d rows, apply saw %d", st.Rows, rows)
		}
		// After truncation the log is clean: strict replay agrees.
		w3, st2, err := OpenWAL(context.Background(), path, 32, true, 0, nil,
			func(b batch) error { return nil })
		if err != nil {
			t.Fatalf("healed log fails strict replay: %v", err)
		}
		w3.Close()
		want := st
		want.Truncated = 0
		if st2 != want {
			t.Fatalf("healed log replays differently: %+v then %+v", st, st2)
		}
	})
}
