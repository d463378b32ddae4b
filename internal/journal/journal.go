// Package journal is the repository's one append-only log format. The
// benchfig checkpoint journal, the scale study's shard journals and the
// tendsd write-ahead log all frame, checksum and recover their records
// here; each keeps only the encoding of its own payloads.
//
// Layout (integers little-endian):
//
//	file:  magic "TENDSLOG" | version u32 | header frame | record frame ...
//	frame: len u32 | crc32c(payload) u32 | payload
//
// Payloads are opaque and never empty, so a zero-filled tail (a file size
// extended before its data landed) reads as damage, not as empty records.
//
// Recovery has one policy for every user. Reading stops at the first bad
// frame. A bad frame that ends the file is a torn tail — the normal state
// of a writer killed mid-append; any other bad frame is mid-file
// corruption. Either way Open reports exactly one Damage at the bad
// frame's byte offset. Lenient opens truncate the file there and append
// after the intact prefix; strict opens refuse with ErrCorrupt and leave
// the file as it was. A damaged header is never recoverable: without it no
// record can be trusted.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Version is the format version stamped after the magic. Files of any
// other version, and files in the formats that predate this package, are
// refused.
const Version = 2

const (
	magic       = "TENDSLOG"
	prefixSize  = len(magic) + 4 // magic + version
	frameHeader = 8              // len + crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt marks a file this build cannot trust as written: a damaged
// frame a strict open refuses, a damaged header, or a file that is not a
// journal of this version. errors.Is works through the wrapped detail.
var ErrCorrupt = errors.New("journal corrupt")

// Damage locates the frame where reading stopped: its byte offset (where a
// lenient open truncates), why it is bad, and whether it ends the file
// (a torn tail) rather than sitting mid-file.
type Damage struct {
	Offset int64
	Reason string
	Torn   bool
}

func (d *Damage) Error() string {
	kind := "corrupt frame"
	if d.Torn {
		kind = "torn tail"
	}
	return fmt.Sprintf("%s at byte %d: %s", kind, d.Offset, d.Reason)
}

// Contents is what a read recovered: the header payload, the intact record
// payloads in order, and the damage that stopped the read (nil when the
// file ends on a frame boundary). Size is the file size as found, before
// any truncation.
type Contents struct {
	Header  []byte
	Records [][]byte
	Damage  *Damage
	Size    int64
}

// Log is an open journal positioned for appending.
type Log struct {
	mu  sync.Mutex
	f   *os.File
	off int64 // end of the last whole frame
	buf []byte
}

// Create starts a fresh journal at path, truncating any existing file, and
// writes the magic, version and header frame in one write. Nothing is
// synced; durability is the caller's Sync.
func Create(path string, header []byte) (*Log, error) {
	if len(header) == 0 {
		return nil, errors.New("journal: empty header")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	b := binary.LittleEndian.AppendUint32([]byte(magic), Version)
	b = appendFrame(b, header)
	if _, err := f.Write(b); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write header of %s: %w", path, err)
	}
	return &Log{f: f, off: int64(len(b))}, nil
}

// Open reads the journal at path and positions it for appending after the
// last intact record. A damaged frame is truncated away unless strict is
// set, in which case Open returns an error wrapping ErrCorrupt and the
// Damage, touches nothing, and still returns the intact prefix it read.
// A missing file is an error satisfying errors.Is(err, os.ErrNotExist).
func Open(path string, strict bool) (*Log, Contents, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, Contents{}, err
	}
	c, err := read(f, path)
	if err == nil && c.Damage != nil {
		if strict {
			err = fmt.Errorf("%w: %s: %w", ErrCorrupt, path, c.Damage)
		} else if terr := f.Truncate(c.Damage.Offset); terr != nil {
			err = fmt.Errorf("journal: truncate %s at byte %d: %w", path, c.Damage.Offset, terr)
		}
	}
	if err != nil {
		f.Close()
		return nil, c, err
	}
	off := c.Size
	if c.Damage != nil {
		off = c.Damage.Offset
	}
	return &Log{f: f, off: off}, c, nil
}

// Read recovers a journal's contents without modifying the file: the
// read-only counterpart of a lenient Open, for consumers that only inspect
// or merge a journal.
func Read(path string) (Contents, error) {
	f, err := os.Open(path)
	if err != nil {
		return Contents{}, err
	}
	defer f.Close()
	return read(f, path)
}

// ReadHeader returns the header payload without reading any record, for
// cheap validation of a set of journals before loading them whole.
func ReadHeader(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// The header frame's length prefix bounds the second read; a damaged
	// one reads at most to the end of the file.
	head, err := io.ReadAll(io.LimitReader(f, int64(prefixSize+frameHeader)))
	if err == nil && len(head) == prefixSize+frameHeader {
		var p []byte
		p, err = io.ReadAll(io.LimitReader(f, int64(binary.LittleEndian.Uint32(head[prefixSize:]))))
		head = append(head, p...)
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	h, _, err := parseHeader(head, path)
	return h, err
}

func read(f *os.File, path string) (Contents, error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return Contents{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	c := Contents{Size: int64(len(data))}
	var off int
	c.Header, off, err = parseHeader(data, path)
	if err != nil {
		return c, err
	}
	for off < len(data) {
		p, end, reason := frameAt(data, off)
		if reason != "" {
			c.Damage = &Damage{Offset: int64(off), Reason: reason, Torn: end >= len(data)}
			break
		}
		c.Records = append(c.Records, p)
		off = end
	}
	return c, nil
}

// parseHeader checks the magic and version and returns the header payload
// and the offset of the first record frame.
func parseHeader(data []byte, path string) ([]byte, int, error) {
	switch {
	case len(data) == 0:
		return nil, 0, fmt.Errorf("%w: %s: empty file, no header", ErrCorrupt, path)
	case len(data) < prefixSize || string(data[:len(magic)]) != magic:
		return nil, 0, fmt.Errorf("%w: %s: not a version-%d journal (starts %q); files from older releases are refused",
			ErrCorrupt, path, Version, data[:min(len(data), len(magic))])
	}
	if v := binary.LittleEndian.Uint32(data[len(magic):]); v != Version {
		return nil, 0, fmt.Errorf("%w: %s: journal format version %d, this build reads version %d", ErrCorrupt, path, v, Version)
	}
	h, end, reason := frameAt(data, prefixSize)
	if reason != "" {
		return nil, 0, fmt.Errorf("%w: %s: damaged header: %s", ErrCorrupt, path, reason)
	}
	return h, end, nil
}

// frameAt decodes the frame at off, returning its payload and end offset,
// or a non-empty reason it is bad. For a bad frame, end >= len(data) means
// the frame reaches the end of the file.
func frameAt(data []byte, off int) ([]byte, int, string) {
	rest := data[off:]
	if len(rest) < frameHeader {
		return nil, len(data), fmt.Sprintf("%d-byte frame header", len(rest))
	}
	n := uint64(binary.LittleEndian.Uint32(rest))
	if n > uint64(len(rest)-frameHeader) {
		return nil, len(data), fmt.Sprintf("%d-byte frame runs past the end of the file", n)
	}
	end := off + frameHeader + int(n)
	if n == 0 {
		return nil, end, "zero-length frame"
	}
	p := rest[frameHeader : frameHeader+n]
	if crc32.Checksum(p, crcTable) != binary.LittleEndian.Uint32(rest[4:]) {
		return nil, end, "checksum mismatch"
	}
	return p, end, ""
}

func appendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, crcTable))
	return append(b, payload...)
}

// Append frames one record at the end of the log in a single write. It is
// safe for concurrent use. The record is not durable until Sync. On a
// failed write the file is cut back to the last whole frame, so a partial
// frame never precedes later appends; if even that fails, the file ends in
// a bad frame that the next Open reads as a torn tail.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("journal: empty record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = appendFrame(l.buf[:0], payload)
	if _, err := l.f.WriteAt(l.buf, l.off); err != nil {
		if terr := l.f.Truncate(l.off); terr != nil {
			return fmt.Errorf("journal: append failed (%v) and rewind failed: %w", err, terr)
		}
		return fmt.Errorf("journal: append: %w", err)
	}
	l.off += int64(len(l.buf))
	return nil
}

// Sync makes every appended record durable.
func (l *Log) Sync() error { return l.f.Sync() }

// Size is the log's end offset: prefix, header and every whole frame.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Close closes the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }
