package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"tends/internal/core"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// The snapshot is the service's compaction artifact: the full acked row
// history, the batch-id dedup set, and the last computed topology, written
// atomically (tmp + fsync + rename + dir fsync). On restart the snapshot
// restores state in one read and the WAL replays only the suffix; after a
// snapshot is durable the WAL resets to an empty generation.
//
// Layout (little endian, trailing CRC-32C over everything before it):
//
//	magic "TENDSNAP" | version u32 | n u32 | flags u8
//	rowCount u64 | rows: rowCount × (size uvarint + id-delta uvarints)
//	ids: count uvarint + sorted delta uvarints
//	topology (flags&snapHasTopo): epoch u64 | rows u64 | threshold f64 bits
//	  | n × (parentCount uvarint + parent-delta uvarints)
//	  | degraded: count uvarint × (node uvarint + reason u8)
//	crc u32

const (
	snapMagic   = "TENDSNAP"
	snapVersion = 1

	snapTraditional = 1 << 0
	snapHasTopo     = 1 << 1
)

// topology is one computed inference result, versioned by epoch.
type topology struct {
	epoch     uint64
	rows      uint64 // acked rows folded in when this was computed
	threshold float64
	parents   [][]int
	degraded  []core.NodeDegrade
}

// snapshot is the decoded persistent state.
type snapshot struct {
	n           int
	traditional bool
	rows        [][]int32
	ids         []uint64
	topo        *topology
}

// encodeSnapshot renders the canonical byte form.
func encodeSnapshot(s *snapshot) []byte {
	buf := make([]byte, 0, 64+len(s.rows)*8)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.n))
	var flags byte
	if s.traditional {
		flags |= snapTraditional
	}
	if s.topo != nil {
		flags |= snapHasTopo
	}
	buf = append(buf, flags)

	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s.rows)))
	for _, row := range s.rows {
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		prev := int32(-1)
		for _, v := range row {
			buf = binary.AppendUvarint(buf, uint64(v-prev))
			prev = v
		}
	}

	ids := slices.Clone(s.ids)
	slices.Sort(ids)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := uint64(0)
	for k, id := range ids {
		if k == 0 {
			buf = binary.AppendUvarint(buf, id)
		} else {
			buf = binary.AppendUvarint(buf, id-prev)
		}
		prev = id
	}

	if t := s.topo; t != nil {
		buf = binary.LittleEndian.AppendUint64(buf, t.epoch)
		buf = binary.LittleEndian.AppendUint64(buf, t.rows)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t.threshold))
		for v := 0; v < s.n; v++ {
			var ps []int
			if v < len(t.parents) {
				ps = t.parents[v]
			}
			buf = binary.AppendUvarint(buf, uint64(len(ps)))
			pprev := -1
			for _, p := range ps {
				buf = binary.AppendUvarint(buf, uint64(p-pprev))
				pprev = p
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(t.degraded)))
		for _, d := range t.degraded {
			buf = binary.AppendUvarint(buf, uint64(d.Node))
			buf = append(buf, byte(d.Reason))
		}
	}

	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, crcTable))
}

// snapReader walks the encoded form with uniform short-buffer errors.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("serve: snapshot truncated")
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := uvarint(r.buf)
	if k <= 0 {
		r.err = fmt.Errorf("serve: snapshot truncated")
		return 0
	}
	r.buf = r.buf[k:]
	return v
}

func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < len(snapMagic)+4+4+1+8+4 {
		return nil, fmt.Errorf("serve: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("serve: bad snapshot magic %q", data[:len(snapMagic)])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("serve: snapshot CRC mismatch")
	}
	r := &snapReader{buf: body[len(snapMagic):]}
	if v := r.u32(); v != snapVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, want %d", v, snapVersion)
	}
	s := &snapshot{n: int(r.u32())}
	flagsB := r.take(1)
	if r.err != nil {
		return nil, r.err
	}
	flags := flagsB[0]
	s.traditional = flags&snapTraditional != 0

	rowCount := r.u64()
	if r.err == nil && rowCount > uint64(len(r.buf)) {
		return nil, fmt.Errorf("serve: snapshot row count %d exceeds payload", rowCount)
	}
	s.rows = make([][]int32, 0, rowCount)
	for i := uint64(0); i < rowCount && r.err == nil; i++ {
		size := r.uvarint()
		if size > uint64(s.n) {
			return nil, fmt.Errorf("serve: snapshot row %d has %d ids over %d nodes", i, size, s.n)
		}
		row := make([]int32, 0, size)
		prev := int64(-1)
		for k := uint64(0); k < size && r.err == nil; k++ {
			gap := r.uvarint()
			if gap == 0 || gap > uint64(s.n) {
				return nil, fmt.Errorf("serve: snapshot row %d not strictly increasing", i)
			}
			id := prev + int64(gap)
			if id >= int64(s.n) {
				return nil, fmt.Errorf("serve: snapshot row %d id %d out of range", i, id)
			}
			row = append(row, int32(id))
			prev = id
		}
		s.rows = append(s.rows, row)
	}

	idCount := r.uvarint()
	if r.err == nil && idCount > uint64(len(r.buf))+1 {
		return nil, fmt.Errorf("serve: snapshot id count %d exceeds payload", idCount)
	}
	s.ids = make([]uint64, 0, idCount)
	prev := uint64(0)
	for i := uint64(0); i < idCount && r.err == nil; i++ {
		d := r.uvarint()
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		s.ids = append(s.ids, prev)
	}

	if flags&snapHasTopo != 0 && r.err == nil {
		t := &topology{
			epoch:     r.u64(),
			rows:      r.u64(),
			threshold: math.Float64frombits(r.u64()),
			parents:   make([][]int, s.n),
		}
		for v := 0; v < s.n && r.err == nil; v++ {
			pc := r.uvarint()
			if pc > uint64(s.n) {
				return nil, fmt.Errorf("serve: snapshot node %d has %d parents over %d nodes", v, pc, s.n)
			}
			ps := make([]int, 0, pc)
			pprev := -1
			for k := uint64(0); k < pc && r.err == nil; k++ {
				gap := r.uvarint()
				if gap == 0 || gap > uint64(s.n) {
					return nil, fmt.Errorf("serve: snapshot node %d parents not strictly increasing", v)
				}
				p := pprev + int(gap)
				if p >= s.n {
					return nil, fmt.Errorf("serve: snapshot node %d parent %d out of range", v, p)
				}
				ps = append(ps, p)
				pprev = p
			}
			t.parents[v] = ps
		}
		dc := r.uvarint()
		if r.err == nil && dc > uint64(s.n) {
			return nil, fmt.Errorf("serve: snapshot degrade count %d exceeds node count", dc)
		}
		for i := uint64(0); i < dc && r.err == nil; i++ {
			node := r.uvarint()
			rb := r.take(1)
			if r.err != nil {
				break
			}
			t.degraded = append(t.degraded, core.NodeDegrade{Node: int(node), Reason: core.DegradeReason(rb[0])})
		}
		s.topo = t
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("serve: %d trailing bytes in snapshot", len(r.buf))
	}
	return s, nil
}

// writeSnapshot persists atomically: tmp file, fsync, rename, dir fsync.
// A crash at any point leaves either the old snapshot or the new one, never
// a torn mix.
func writeSnapshot(path string, s *snapshot) error {
	data := encodeSnapshot(s)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("serve: create snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: publish snapshot: %w", err)
	}
	return syncDir(path)
}

// readSnapshot loads and decodes a snapshot; (nil, nil) when absent.
func readSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: read snapshot: %w", err)
	}
	return decodeSnapshot(data)
}

// syncDir fsyncs the directory containing path, making a rename durable.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("serve: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("serve: sync dir: %w", err)
	}
	return nil
}
