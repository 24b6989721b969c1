package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readAll opens path and returns every record it yields (copied) with the
// cut flag; the file is closed again.
func readAll(t testing.TB, path string) ([][]byte, bool) {
	t.Helper()
	var recs [][]byte
	f, cut, err := Open(path, func(_ int64, rec []byte) {
		recs = append(recs, append([]byte(nil), rec...))
	})
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, cut
}

// writeRecords creates a record file holding recs and returns its bytes.
func writeRecords(t testing.TB, path string, recs ...[]byte) []byte {
	t.Helper()
	f, _, err := Open(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if _, err := f.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func equalRecords(a, b [][]byte) bool {
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

var threeRecords = [][]byte{[]byte(`{"seq":1}`), []byte("second record"), []byte(`{"c":7.5602e-08}`)}

// TestTruncateAtEveryByte: a file cut at any byte yields exactly the records
// that fit before the cut, reports a cut iff the cut splits a frame, and
// takes appends again after reopening.
func TestTruncateAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	full := writeRecords(t, filepath.Join(dir, "full"), threeRecords...)
	ends := []int{len(magic)} // frame boundaries
	for _, r := range threeRecords {
		ends = append(ends, ends[len(ends)-1]+FrameHeader+len(r))
	}
	for size := 0; size <= len(full); size++ {
		p := filepath.Join(dir, fmt.Sprintf("cut%d", size))
		if err := os.WriteFile(p, full[:size], 0o644); err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		boundary := size <= len(magic)
		for i, end := range ends[1:] {
			if end <= size {
				want = threeRecords[:i+1]
			}
			boundary = boundary || end == size
		}
		got, cut := readAll(t, p)
		if !equalRecords(got, want) {
			t.Fatalf("cut at %d: got %q, want %q", size, got, want)
		}
		if cut == boundary {
			t.Fatalf("cut at %d: cut=%v, want %v", size, cut, !boundary)
		}

		f, _, err := Open(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, cut = readAll(t, p)
		if cut || !equalRecords(got, append(append([][]byte(nil), want...), []byte("after"))) {
			t.Fatalf("cut at %d then append: got %q (cut=%v)", size, got, cut)
		}
	}
}

// TestBitFlipNeverChangesPayload: flipping any single bit of a record file
// never makes Open yield a payload that was not written: it yields an
// unchanged prefix of the records, or reports ErrCorrupt for a flipped
// magic.
func TestBitFlipNeverChangesPayload(t *testing.T) {
	dir := t.TempDir()
	full := writeRecords(t, filepath.Join(dir, "full"), threeRecords...)
	for i := range full {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), full...)
			data[i] ^= 1 << bit
			p := filepath.Join(dir, fmt.Sprintf("flip%d.%d", i, bit))
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var got [][]byte
			f, _, err := Open(p, func(_ int64, rec []byte) { got = append(got, append([]byte(nil), rec...)) })
			if i < len(magic) {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip in magic byte %d bit %d: err %v, want ErrCorrupt", i, bit, err)
				}
				if _, err := os.Stat(p + ".corrupt"); err != nil {
					t.Fatalf("flipped magic not quarantined: %v", err)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
			if len(got) >= len(threeRecords) || !equalRecords(got, threeRecords[:len(got)]) {
				t.Fatalf("flip at byte %d bit %d yielded %q", i, bit, got)
			}
		}
	}
}

// TestReadAtChecksFrame: ReadAt serves intact records and answers
// ErrCorrupt for a flipped payload byte or a wrong length.
func TestReadAtChecksFrame(t *testing.T) {
	p := filepath.Join(t.TempDir(), "r")
	f, _, err := Open(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var offs []int64
	for _, r := range threeRecords {
		off, err := f.Append(r[:1], r[1:]) // parts concatenate into one payload
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for i, r := range threeRecords {
		got, err := f.ReadAt(offs[i], len(r))
		if err != nil || !bytes.Equal(got, r) {
			t.Fatalf("record %d: %q, %v", i, got, err)
		}
	}
	if _, err := f.ReadAt(offs[1], len(threeRecords[1])-1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong length: %v, want ErrCorrupt", err)
	}

	// Flip one payload byte of record 2 behind the handle's back.
	raw, err := os.OpenFile(p, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.WriteAt([]byte("8"), offs[2]+int64(bytes.IndexByte(threeRecords[2], '7'))); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	if _, err := f.ReadAt(offs[2], len(threeRecords[2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload: %v, want ErrCorrupt", err)
	}
	if got, err := f.ReadAt(offs[0], len(threeRecords[0])); err != nil || !bytes.Equal(got, threeRecords[0]) {
		t.Fatalf("intact record after a flip elsewhere: %q, %v", got, err)
	}
}

// TestLegacyConversion: a JSONL file converts once — complete lines become
// records, the torn last line is reported as a cut — and a stale .tmp left by
// a crash mid-conversion does not matter.
func TestLegacyConversion(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "j1.jsonl")
	legacy := "{\"a\":1}\n\n{\"b\":2}\n{\"torn\":"
	if err := os.WriteFile(p, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p+".tmp", []byte("half-written conversion"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	f, cut, err := Open(p, func(_ int64, rec []byte) { got = append(got, append([]byte(nil), rec...)) })
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(`{"b":2}`)}
	if !cut || !equalRecords(got, want) {
		t.Fatalf("converted: %q cut=%v, want %q with a cut", got, cut, want)
	}
	// The handle keeps the opened path, not the temp file's it was renamed from.
	if f.Name() != p {
		t.Fatalf("Name() = %q, want %q", f.Name(), p)
	}
	f.Close()
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		t.Fatalf("file not rewritten as a record file: %q", data)
	}
	// The second open reads the converted file as is.
	if got, cut := readAll(t, p); cut || !equalRecords(got, want) {
		t.Fatalf("reopened: %q cut=%v", got, cut)
	}
}

// TestNotARecordFile: a file that is neither a record file nor JSONL is
// quarantined and reported; an empty file is initialised.
func TestNotARecordFile(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x.pnr")
	if err := os.WriteFile(p, []byte("pnresv1\n\x00\x00\x00\x04"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(p, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign file: %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("foreign file left in place")
	}
	if _, err := os.Stat(p + ".corrupt"); err != nil {
		t.Fatalf("foreign file not quarantined: %v", err)
	}
	if got, cut := readAll(t, p); len(got) != 0 || cut {
		t.Fatalf("fresh file after quarantine: %q cut=%v", got, cut)
	}
}

// TestConcurrentAppendAndRead: appends from several goroutines each land as
// one whole frame, ReadAt serves them while others still append, and a
// reopen finds every record.
func TestConcurrentAppendAndRead(t *testing.T) {
	p := filepath.Join(t.TempDir(), "c")
	f, _, err := Open(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := []byte(fmt.Sprintf("writer %d record %d", g, i))
				off, err := f.Append(rec[:3], rec[3:])
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := f.ReadAt(off, len(rec)); err != nil || !bytes.Equal(got, rec) {
					t.Errorf("read back %q: %q, %v", rec, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	f.Close()
	got, cut := readAll(t, p)
	seen := map[string]bool{}
	for _, r := range got {
		seen[string(r)] = true
	}
	if cut || len(got) != writers*each || len(seen) != writers*each {
		t.Fatalf("reopen: %d records, %d distinct, cut=%v; want %d", len(got), len(seen), cut, writers*each)
	}
}

// FuzzOpen drives Open with arbitrary file contents — the decoder under
// journal replay, the spill index, trace reload and the lease journal. It
// must not panic, and every record it yields must round-trip: appended to a
// fresh file and reopened, the same records come back. Reopening the
// (possibly truncated) input yields the same records with no further cut.
func FuzzOpen(f *testing.F) {
	dir := f.TempDir()
	valid := writeRecords(f, filepath.Join(dir, "seed"), threeRecords...)
	f.Add(valid)
	f.Add([]byte("{\"v\":1,\"t\":\"accepted\"}\n{\"v\":1,\"t\":\"event\",\"ev\":{\"seq\":1,\"ty"))
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(magic)+FrameHeader+2] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := filepath.Join(dir, "in")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		w, _, err := Open(p, func(_ int64, rec []byte) {
			if len(rec) == 0 {
				t.Fatal("empty record yielded")
			}
			recs = append(recs, append([]byte(nil), rec...))
		})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: %v", err)
			}
			return
		}
		w.Close()
		if again, cut := readAll(t, p); cut || !equalRecords(again, recs) {
			t.Fatalf("reopen: %d records (cut=%v), first open %d", len(again), cut, len(recs))
		}
		q := filepath.Join(dir, "copy")
		writeRecords(t, q, recs...)
		if back, cut := readAll(t, q); cut || !equalRecords(back, recs) {
			t.Fatalf("round trip: %d records (cut=%v), want %d", len(back), cut, len(recs))
		}
	})
}
