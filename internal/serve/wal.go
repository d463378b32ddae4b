package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"

	"tends/internal/chaos"
	"tends/internal/journal"
	"tends/internal/obs"
)

// The write-ahead log is the service's durability floor: a batch is acked
// only after its record is on disk (group fsync), so any acked row survives
// kill -9 and is replayed byte-identically on restart.
//
// The log is a journal (see package journal): its header payload is
// n u32 | baseRow u64, and each record payload is one batch in the
// canonical encoding of codec.go. baseRow is how many rows were already
// durable in the snapshot when this WAL generation was created; replay
// starts feeding state at that offset. A torn or corrupt frame ends replay
// and is truncated away unless StrictWAL is set; frames never reference
// each other, so truncation can only drop the log's suffix.

const walHeaderLen = 4 + 8

// WAL is the append side of the log. Appends and syncs are serialized by
// the caller (the service's single ingest loop).
type WAL struct {
	log     *journal.Log
	path    string
	n       int
	baseRow uint64
	rows    int64 // rows framed in this generation (appended + replayed)
	buf     []byte
}

// CreateWAL starts a fresh, synced log at path for n nodes, with baseRow
// rows already durable in the snapshot. An existing file is truncated.
func CreateWAL(path string, n int, baseRow uint64) (*WAL, error) {
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, walHeaderLen), uint32(n))
	hdr = binary.LittleEndian.AppendUint64(hdr, baseRow)
	log, err := journal.Create(path, hdr)
	if err != nil {
		return nil, fmt.Errorf("serve: create WAL: %w", err)
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return nil, fmt.Errorf("serve: sync WAL header: %w", err)
	}
	return &WAL{log: log, path: path, n: n, baseRow: baseRow}, nil
}

// ReplayStats reports what OpenWAL recovered.
type ReplayStats struct {
	Batches   int   // batches fed to apply
	Rows      int64 // rows fed to apply (after the baseRow/skip window)
	Skipped   int64 // rows skipped because the snapshot already held them
	Duplicate int   // batches skipped because their id was already applied
	Truncated int64 // torn-tail bytes truncated from the end of the log
}

// OpenWAL opens an existing log, replays every intact batch, and positions
// the WAL for appending after the last one.
//
// skipRows rows at the head of the log are already part of the caller's
// snapshot and are not re-applied (their batches still count as seen —
// the caller's seen set, loaded from the snapshot, handles that; replay
// additionally consults seen so retried batches recorded twice in the log
// apply exactly once). apply receives each surviving batch in log order.
//
// A damaged frame is truncated away (and the truncation synced) unless
// strict is set, in which case OpenWAL fails with journal.ErrCorrupt and
// touches nothing. A frame that passes its checksum but does not decode as
// a batch was written wrong, not torn, and fails the open in either mode.
func OpenWAL(ctx context.Context, path string, n int, strict bool,
	skipRows uint64, seen func(id uint64) bool, apply func(b batch) error) (*WAL, ReplayStats, error) {

	var st ReplayStats
	log, c, err := journal.Open(path, strict)
	if err != nil {
		return nil, st, fmt.Errorf("serve: open WAL: %w", err)
	}
	w := &WAL{log: log, path: path, n: n}
	fail := func(err error) (*WAL, ReplayStats, error) {
		log.Close()
		return nil, st, err
	}
	if len(c.Header) != walHeaderLen {
		return fail(fmt.Errorf("serve: open WAL: %w: %d-byte header, want %d", journal.ErrCorrupt, len(c.Header), walHeaderLen))
	}
	if hn := int(binary.LittleEndian.Uint32(c.Header)); hn != n {
		return fail(fmt.Errorf("serve: WAL holds %d-node observations, server configured for %d", hn, n))
	}
	w.baseRow = binary.LittleEndian.Uint64(c.Header[4:])
	if w.baseRow > skipRows {
		return fail(fmt.Errorf("serve: WAL base row %d is past the snapshot's %d rows — snapshot and log are from different histories", w.baseRow, skipRows))
	}
	skip := skipRows - w.baseRow

	applied := make(map[uint64]bool)
	for i, payload := range c.Records {
		b, err := decodeBatchPayload(payload, n)
		if err != nil {
			return fail(fmt.Errorf("serve: open WAL: %w: record %d: %v", journal.ErrCorrupt, i, err))
		}
		w.rows += int64(len(b.rows))

		// The snapshot window: rows the snapshot already folded. Snapshots
		// are cut at batch boundaries, so the window always ends exactly at
		// a frame edge; anything else means the files are mismatched.
		if skip > 0 {
			if uint64(len(b.rows)) > skip {
				return fail(fmt.Errorf("serve: snapshot row count lands inside WAL batch %d — snapshot and log are from different histories", b.id))
			}
			skip -= uint64(len(b.rows))
			st.Skipped += int64(len(b.rows))
			continue
		}
		// A batch acked after an fsync failure gets retried by the client
		// and framed twice; only the first occurrence applies. seen covers
		// batches the caller's snapshot already folded.
		if applied[b.id] || (seen != nil && seen(b.id)) {
			st.Duplicate++
			continue
		}
		applied[b.id] = true
		if err := apply(b); err != nil {
			return fail(fmt.Errorf("serve: replay batch %d: %w", b.id, err))
		}
		st.Batches++
		st.Rows += int64(len(b.rows))
	}
	if skip > 0 {
		return fail(fmt.Errorf("serve: snapshot holds %d more rows than the WAL — snapshot and log are from different histories", skip))
	}
	if c.Damage != nil {
		st.Truncated = c.Size - c.Damage.Offset
		if err := log.Sync(); err != nil {
			return fail(fmt.Errorf("serve: sync truncated WAL: %w", err))
		}
	}
	rec := obs.From(ctx)
	rec.Counter("serve/wal/replayed").Add(st.Rows)
	rec.Counter("serve/wal/truncated").Add(st.Truncated)
	return w, st, nil
}

// Append frames one batch at the end of the log. The frame is written but
// NOT durable until Sync; callers must not ack before a successful Sync.
// On a failed write the journal rewinds to the last whole frame, so a
// half-written frame can never precede later appends.
func (w *WAL) Append(ctx context.Context, id uint64, rows [][]int32) error {
	if err := chaos.Maybe(ctx, chaos.SiteWALAppend); err != nil {
		obs.From(ctx).Counter("serve/wal/append_errors").Inc()
		return err
	}
	w.buf = appendBatchPayload(w.buf[:0], id, rows)
	if err := w.log.Append(w.buf); err != nil {
		obs.From(ctx).Counter("serve/wal/append_errors").Inc()
		return fmt.Errorf("serve: WAL append: %w", err)
	}
	w.rows += int64(len(rows))
	obs.From(ctx).Counter("serve/wal/appends").Inc()
	return nil
}

// Sync makes every appended frame durable. Group commit: the ingest loop
// appends a whole batch group, then syncs once and acks them together.
func (w *WAL) Sync(ctx context.Context) error {
	if err := chaos.Maybe(ctx, chaos.SiteWALSync); err != nil {
		obs.From(ctx).Counter("serve/wal/sync_errors").Inc()
		return err
	}
	if err := w.log.Sync(); err != nil {
		obs.From(ctx).Counter("serve/wal/sync_errors").Inc()
		return fmt.Errorf("serve: WAL sync: %w", err)
	}
	obs.From(ctx).Counter("serve/wal/fsyncs").Inc()
	return nil
}

// Rows returns the total rows framed in this generation, replayed included.
func (w *WAL) Rows() int64 { return w.rows }

// BaseRow returns the snapshot row offset this generation starts at.
func (w *WAL) BaseRow() uint64 { return w.baseRow }

// Size returns the current end offset — header plus intact frames.
func (w *WAL) Size() int64 { return w.log.Size() }

// Reset replaces the log with an empty generation starting at baseRow.
// Called after a snapshot has been durably persisted: every logged row is
// now in the snapshot, so the frames are dead weight. The swap is a fresh
// file renamed over the old one — a crash before the rename leaves the old
// log intact, and replay's skip window already handles a snapshot newer
// than the log's baseRow, so there is no unsafe ordering.
func (w *WAL) Reset(baseRow uint64) error {
	fresh, err := CreateWAL(w.path+".tmp", w.n, baseRow)
	if err != nil {
		return err
	}
	if err := os.Rename(w.path+".tmp", w.path); err != nil {
		fresh.log.Close()
		return fmt.Errorf("serve: swap reset WAL: %w", err)
	}
	if err := syncDir(w.path); err != nil {
		fresh.log.Close()
		return err
	}
	w.log.Close()
	w.log = fresh.log
	w.baseRow = baseRow
	w.rows = 0
	return nil
}

// Close syncs and closes the file.
func (w *WAL) Close() error {
	if err := w.log.Sync(); err != nil {
		w.log.Close()
		return fmt.Errorf("serve: close WAL: %w", err)
	}
	return w.log.Close()
}
