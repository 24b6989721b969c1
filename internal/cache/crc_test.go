package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDiskBitFlipIsMiss: a disk entry whose payload had one digit changed
// still parses, but fails its checksum: a fresh store answers a miss and
// removes the file rather than serving the altered value.
func TestDiskBitFlipIsMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("flip", []byte(`{"c":7.5602e-08}`)); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "flip.json")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("7.5602e-08"))
	if at < 0 {
		t.Fatalf("payload not found in %q", data)
	}
	data[at+5] = '3' // 7.5603e-08
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get("flip"); ok {
		t.Fatalf("bit-flipped entry served as a hit: %s", v)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("bit-flipped entry left on disk: %v", err)
	}
}
