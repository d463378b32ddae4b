package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeJournal creates a journal at path with the given header and records
// and returns the file bytes plus the offset at which each record's frame
// starts (with the end offset appended last).
func writeJournal(t testing.TB, path string, header []byte, records ...[]byte) ([]byte, []int64) {
	t.Helper()
	l, err := Create(path, header)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int64{l.Size()}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		offs = append(offs, l.Size())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, offs
}

func records(n int) [][]byte {
	var rs [][]byte
	for i := 0; i < n; i++ {
		rs = append(rs, []byte(fmt.Sprintf(`{"record":%d,"pad":%q}`, i, strings.Repeat("x", i))))
	}
	return rs
}

func sameRecords(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestRoundTripAndAppendAfterOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	recs := records(4)
	writeJournal(t, path, []byte("hdr"), recs...)

	l, c, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if string(c.Header) != "hdr" || !sameRecords(c.Records, recs) || c.Damage != nil {
		t.Fatalf("contents = %q / %d records / %v", c.Header, len(c.Records), c.Damage)
	}
	if l.Size() != c.Size {
		t.Fatalf("open positioned at %d, file is %d bytes", l.Size(), c.Size)
	}
	extra := []byte("appended after open")
	if err := l.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	c, err = Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRecords(c.Records, append(recs, extra)) {
		t.Fatalf("after append: %d records", len(c.Records))
	}
	if h, err := ReadHeader(path); err != nil || string(h) != "hdr" {
		t.Fatalf("ReadHeader = %q, %v", h, err)
	}
	if err := l.Append(nil); err == nil {
		t.Fatal("empty record accepted")
	}
}

// TestTornTail cuts the file at every byte inside the last frame: the
// damage is torn at exactly that frame's offset, strict refuses without
// touching the file, and lenient keeps the prefix, truncates, and appends
// bytes identical to an uninterrupted writer's.
func TestTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := records(3)
	full, offs := writeJournal(t, filepath.Join(dir, "full.journal"), []byte("hdr"), recs...)
	last := offs[len(offs)-2]

	for cut := last + 1; cut < int64(len(full)); cut++ {
		path := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, c, err := Open(path, true)
		var d *Damage
		if !errors.Is(err, ErrCorrupt) || !errors.As(err, &d) {
			t.Fatalf("cut %d: strict open err = %v, want ErrCorrupt with Damage", cut, err)
		}
		if !d.Torn || d.Offset != last || !strings.Contains(err.Error(), fmt.Sprintf("byte %d", last)) {
			t.Fatalf("cut %d: damage %+v, want torn at %d", cut, d, last)
		}
		if !sameRecords(c.Records, recs[:2]) {
			t.Fatalf("cut %d: strict open returned %d intact records", cut, len(c.Records))
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, full[:cut]) {
			t.Fatalf("cut %d: strict open modified the file", cut)
		}

		l, c, err := Open(path, false)
		if err != nil {
			t.Fatalf("cut %d: lenient open: %v", cut, err)
		}
		if c.Damage == nil || !c.Damage.Torn || c.Damage.Offset != last || c.Size != cut {
			t.Fatalf("cut %d: lenient damage %+v size %d", cut, c.Damage, c.Size)
		}
		if err := l.Append(recs[2]); err != nil {
			t.Fatal(err)
		}
		l.Close()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, full) {
			t.Fatalf("cut %d: resumed bytes differ from an uninterrupted journal", cut)
		}
	}
}

// TestMidFileCorruption flips a byte inside the first record: reading
// stops there, the damage is not torn, and a lenient open drops every
// record from that frame on.
func TestMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	full, offs := writeJournal(t, path, []byte("hdr"), records(3)...)
	bad := append([]byte(nil), full...)
	bad[offs[0]+frameHeader+2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Damage == nil || c.Damage.Torn || c.Damage.Offset != offs[0] || len(c.Records) != 0 {
		t.Fatalf("damage %+v with %d records, want corrupt at %d", c.Damage, len(c.Records), offs[0])
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, bad) {
		t.Fatal("Read modified the file")
	}
	l, _, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if fi, _ := os.Stat(path); fi.Size() != offs[0] {
		t.Fatalf("lenient open left %d bytes, want %d", fi.Size(), offs[0])
	}

	// A zero-filled tail is damage, not a run of empty records.
	zeros := append(append([]byte(nil), full...), make([]byte, 32)...)
	os.WriteFile(path, zeros, 0o644)
	if c, err := Read(path); err != nil || c.Damage == nil || c.Damage.Offset != int64(len(full)) || len(c.Records) != 3 {
		t.Fatalf("zero tail: %+v %v", c.Damage, err)
	}
}

// TestHeaderProblems checks the errors no open mode recovers from: they
// wrap ErrCorrupt, leave the file untouched, and name the format version.
func TestHeaderProblems(t *testing.T) {
	dir := t.TempDir()
	full, _ := writeJournal(t, filepath.Join(dir, "ok.journal"), []byte("hdr"), records(1)...)
	flipped := append([]byte(nil), full...)
	flipped[prefixSize+frameHeader] ^= 0x01
	future := append([]byte(nil), full...)
	binary.LittleEndian.PutUint32(future[len(magic):], Version+1)
	oldWAL := binary.LittleEndian.AppendUint32([]byte("TENDSWAL"), 1)
	oldWAL = append(oldWAL, make([]byte, 16)...)

	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":          {nil, "empty file"},
		"short":          {full[:5], "version-2"},
		"torn header":    {full[:prefixSize+frameHeader+1], "damaged header"},
		"header crc":     {flipped, "damaged header"},
		"future version": {future, "version 3"},
		"old jsonl":      {[]byte(`{"type":"header","version":1,"seed":1,"repeats":1}` + "\n"), "version-2"},
		"old wal":        {oldWAL, "version-2"},
	}
	for name, tc := range cases {
		path := filepath.Join(dir, "bad.journal")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, strict := range []bool{false, true} {
			_, _, err := Open(path, strict)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (strict=%v): err = %v, want ErrCorrupt mentioning %q", name, strict, err, tc.want)
			}
		}
		if _, err := ReadHeader(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: ReadHeader err = %v", name, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, tc.data) {
			t.Fatalf("%s: failed open modified the file", name)
		}
	}
	if _, _, err := Open(filepath.Join(dir, "absent.journal"), false); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent file err = %v, want ErrNotExist", err)
	}
}

// TestConcurrentAppend checks that concurrent appenders never interleave
// frames.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	l, err := Create(path, []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	c, err := Read(path)
	if err != nil || c.Damage != nil || len(c.Records) != 200 {
		t.Fatalf("read %d records, damage %v, err %v", len(c.Records), c.Damage, err)
	}
}

// FuzzJournal opens arbitrary file bytes. Nothing may panic; every refusal
// wraps ErrCorrupt; recovered records plus the damage offset must account
// for the file exactly; strict opens must agree with the damage report and
// leave the file alone; and a lenient open must heal the file so that a
// second open, strict, sees the same records and no damage.
func FuzzJournal(f *testing.F) {
	dir := f.TempDir()
	valid, _ := writeJournal(f, filepath.Join(dir, "seed.journal"), []byte(`{"type":"header","seed":1}`), records(3)...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	mid := append([]byte(nil), valid...)
	mid[len(valid)/2] ^= 0x40
	f.Add(mid)
	f.Add(append(append([]byte(nil), valid...), make([]byte, 12)...))
	f.Add(append(append([]byte(nil), valid...), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))
	f.Add([]byte(`{"type":"shard_header","version":1,"shard_index":0,"shard_count":1,"n":4}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Read(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
			}
			if _, _, oerr := Open(path, false); !errors.Is(oerr, ErrCorrupt) {
				t.Fatalf("Read refused (%v) but lenient Open says %v", err, oerr)
			}
			return
		}
		if c.Size != int64(len(data)) {
			t.Fatalf("size %d, file has %d bytes", c.Size, len(data))
		}
		// The header and every record frame account for the bytes up to
		// the damage (or the end of the file).
		end := int64(prefixSize + frameHeader + len(c.Header))
		for _, r := range c.Records {
			if len(r) == 0 {
				t.Fatal("empty record recovered")
			}
			end += int64(frameHeader + len(r))
		}
		if c.Damage == nil && end != c.Size {
			t.Fatalf("clean read covers %d of %d bytes", end, c.Size)
		}
		if d := c.Damage; d != nil && (d.Offset != end || d.Offset >= c.Size) {
			t.Fatalf("damage %+v, records end at %d of %d bytes", d, end, c.Size)
		}

		_, _, serr := Open(path, true)
		if (serr != nil) != (c.Damage != nil) || (serr != nil && !errors.Is(serr, ErrCorrupt)) {
			t.Fatalf("strict open err %v disagrees with damage %+v", serr, c.Damage)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, data) {
			t.Fatal("strict open or Read modified the file")
		}
		l, lc, err := Open(path, false)
		if err != nil {
			t.Fatalf("lenient open of a readable file failed: %v", err)
		}
		l.Close()
		l2, c2, err := Open(path, true)
		if err != nil {
			t.Fatalf("healed file fails a strict open: %v", err)
		}
		l2.Close()
		if !sameRecords(c2.Records, lc.Records) || c2.Size != end {
			t.Fatalf("healed file reads %d records / %d bytes, want %d / %d", len(c2.Records), c2.Size, len(lc.Records), end)
		}
	})
}
