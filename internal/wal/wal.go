// Package wal is the one on-disk record format behind every append-only log
// of the job server: the job journal, the result spill, the job trace and the
// coordinator's lease journal. A record file is an 8-byte versioned magic
// followed by frames
//
//	[u32 payload length][u32 CRC-32C][payload]
//
// with both integers big-endian and the checksum (Castagnoli) taken over the
// length field and the payload. Records are opaque bytes; each log chooses
// its own payload encoding and its own fsync points (Sync).
//
// There is one damage rule. Open keeps every frame before the first short,
// oversized, empty or checksum-failing one and truncates the file there — a
// torn tail from a crash mid-append and a bit flip in the middle are handled
// alike: nothing at or after the damage is ever served. A file that is not a
// record file at all is moved aside to <name>.corrupt and reported as
// ErrCorrupt.
//
// Files written before the checksummed format were JSONL: one JSON object
// per line. Open recognises them by their leading '{' and converts them once
// — each complete line becomes one record, an unterminated last line counts
// as a torn tail — through a synced temp file renamed over the original.
package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// magic heads every record file; the trailing digits version the framing.
const magic = "pnwal01\n"

// FrameHeader is the per-record overhead: payload length plus checksum.
const FrameHeader = 8

// maxRecord bounds one payload; a larger length field is damage, not data.
const maxRecord = 1 << 28 // 256 MiB

// maxKeptBuf caps the frame buffer a File keeps between appends, so an idle
// file (a terminal job's spill, kept open for reads) does not pin the
// largest record it ever wrote.
const maxKeptBuf = 64 << 10

// ErrCorrupt reports a file that is not a record file, or a record whose
// length or checksum does not match.
var ErrCorrupt = errors.New("wal: corrupt record file")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC-32C of a frame's length field followed by its payload.
func checksum(length, payload []byte) uint32 {
	return crc32.Update(crc32.Checksum(length, castagnoli), castagnoli, payload)
}

// File is one open record file. Append is safe for concurrent use; ReadAt
// may run concurrently with Append.
type File struct {
	path string // the name the file was opened under (a conversion renames a temp file onto it)
	f    *os.File

	mu   sync.Mutex
	size int64  // append position: the end of the last intact frame
	buf  []byte // frame buffer reused across appends
}

// Open opens the record file at path, creating it when missing, and calls fn
// (when non-nil) with the payload offset and bytes of every intact record in
// file order; rec is only valid during the call. cut reports that damage was
// found and the file was truncated before it (or that a converted JSONL file
// had a torn last line). A file that is not a record file is renamed to
// path+".corrupt" and ErrCorrupt is returned.
//
// A new file's magic is written but not synced: the caller's first Sync
// makes it durable along with its first records.
func Open(path string, fn func(off int64, rec []byte)) (w *File, cut bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, false, err
	}
	w = &File{path: path, f: f}
	if cut, err = w.load(fn); err != nil {
		_ = w.f.Close()
		if errors.Is(err, ErrCorrupt) {
			_ = os.Rename(path, path+".corrupt")
		}
		return nil, false, err
	}
	return w, cut, nil
}

// load checks the magic (converting a JSONL file first), then scans the
// frames, calls fn on each intact one and truncates at the first damaged one.
func (w *File) load(fn func(off int64, rec []byte)) (bool, error) {
	var head [len(magic)]byte
	n, err := w.f.ReadAt(head[:], 0)
	if err != nil && err != io.EOF {
		return false, fmt.Errorf("wal: reading %s: %w", w.path, err)
	}
	var converted bool
	switch {
	case n > 0 && head[0] == '{':
		if converted, err = w.convert(); err != nil {
			return false, err
		}
	case string(head[:n]) != magic[:n]:
		return false, fmt.Errorf("%w: %s has no record-file magic", ErrCorrupt, w.path)
	case n < len(magic):
		// New, or a torn create that wrote part of the magic: (re)write it.
		if _, err := w.f.WriteAt([]byte(magic), 0); err != nil {
			return false, fmt.Errorf("wal: initialising %s: %w", w.path, err)
		}
		w.size = int64(len(magic))
		return false, nil
	}

	info, err := w.f.Stat()
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	end := info.Size()
	off := int64(len(magic))
	r := bufio.NewReaderSize(io.NewSectionReader(w.f, off, end-off), 64<<10)
	var hdr [FrameHeader]byte
	var rec []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // clean end, or a torn frame header
			}
			return false, fmt.Errorf("wal: reading %s: %w", w.path, err)
		}
		n := int64(binary.BigEndian.Uint32(hdr[0:4]))
		if n == 0 || n > maxRecord || off+FrameHeader+n > end {
			break // empty, oversized or torn frame
		}
		if int64(cap(rec)) < n {
			rec = make([]byte, n)
		}
		rec = rec[:n]
		if _, err := io.ReadFull(r, rec); err != nil {
			return false, fmt.Errorf("wal: reading %s: %w", w.path, err)
		}
		if checksum(hdr[0:4], rec) != binary.BigEndian.Uint32(hdr[4:8]) {
			break
		}
		if fn != nil {
			fn(off+FrameHeader, rec)
		}
		off += FrameHeader + n
	}
	w.size = off
	if off == end {
		return converted, nil
	}
	if err := w.f.Truncate(off); err != nil {
		return false, fmt.Errorf("wal: truncating %s at damage: %w", w.path, err)
	}
	return true, nil
}

// convert rewrites a JSONL file as a record file — one record per complete
// non-empty line — through path.tmp (fsync, rename, directory fsync), so a
// crash mid-conversion leaves either the old file or the new one; a stale
// .tmp from such a crash is simply overwritten. It reports whether the last
// line was unterminated (a torn tail, dropped). On return w.f is the
// converted file.
func (w *File) convert() (bool, error) {
	data, err := io.ReadAll(io.NewSectionReader(w.f, 0, 1<<62))
	if err != nil {
		return false, fmt.Errorf("wal: reading %s: %w", w.path, err)
	}
	out := []byte(magic)
	for {
		line, rest, ok := bytes.Cut(data, []byte{'\n'})
		if !ok {
			break
		}
		if len(line) > 0 {
			out = appendFrame(out, line)
		}
		data = rest
	}
	tmp := w.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(out); err == nil {
			err = f.Sync()
		}
		if err == nil {
			err = os.Rename(tmp, w.path)
		}
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmp)
		}
	}
	if err != nil {
		return false, fmt.Errorf("wal: converting %s: %w", w.path, err)
	}
	if d, err := os.Open(filepath.Dir(w.path)); err == nil {
		_ = d.Sync() // best-effort: the converted file itself is synced
		_ = d.Close()
	}
	_ = w.f.Close()
	w.f = f
	return len(data) > 0, nil
}

// appendFrame appends to dst one frame whose payload is the concatenation of
// parts.
func appendFrame(dst []byte, parts ...[]byte) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, FrameHeader)...)
	for _, p := range parts {
		dst = append(dst, p...)
	}
	hdr := dst[start : start+FrameHeader]
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(dst)-start-FrameHeader))
	binary.BigEndian.PutUint32(hdr[4:8], checksum(hdr[0:4], dst[start+FrameHeader:]))
	return dst
}

// Append writes one record, whose payload is the concatenation of parts, as
// one frame in one write at the end of the file, and returns the payload's
// offset for ReadAt. A failed write leaves the append position where it
// was, so the next append overwrites any partial frame. Append does not
// sync.
func (w *File) Append(parts ...[]byte) (int64, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 || n > maxRecord {
		return 0, fmt.Errorf("wal: record of %d bytes (want 1..%d)", n, maxRecord)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	buf := appendFrame(w.buf[:0], parts...)
	if cap(buf) <= maxKeptBuf {
		w.buf = buf
	}
	if _, err := w.f.WriteAt(buf, w.size); err != nil {
		_ = w.f.Truncate(w.size) // best-effort: Open cuts a torn tail anyway
		return 0, fmt.Errorf("wal: appending to %s: %w", w.path, err)
	}
	off := w.size + FrameHeader
	w.size += int64(len(buf))
	return off, nil
}

// ReadAt reads back the n-byte record whose payload starts at off (an offset
// Open or Append reported) in one read, and returns its payload after
// checking the frame's length field and checksum; a mismatch is ErrCorrupt.
func (w *File) ReadAt(off int64, n int) ([]byte, error) {
	if off < int64(len(magic))+FrameHeader || n <= 0 || n > maxRecord {
		return nil, fmt.Errorf("%w: no record of %d bytes at offset %d", ErrCorrupt, n, off)
	}
	buf := make([]byte, FrameHeader+n)
	if _, err := w.f.ReadAt(buf, off-FrameHeader); err != nil {
		return nil, fmt.Errorf("wal: reading %s at %d: %w", w.path, off, err)
	}
	if binary.BigEndian.Uint32(buf[0:4]) != uint32(n) ||
		binary.BigEndian.Uint32(buf[4:8]) != checksum(buf[0:4], buf[FrameHeader:]) {
		return nil, fmt.Errorf("%w: %s: record at offset %d fails its checksum", ErrCorrupt, w.path, off)
	}
	return buf[FrameHeader:], nil
}

// Sync flushes the file to stable storage.
func (w *File) Sync() error { return w.f.Sync() }

// Close releases the file.
func (w *File) Close() error { return w.f.Close() }

// Name is the path the file was opened under.
func (w *File) Name() string { return w.path }
