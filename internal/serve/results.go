package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sweep"
)

// The result store is the journal's sibling for payloads: where the WAL makes
// a job's *lifecycle* durable, the spill file makes its *results* durable and
// memory-bounded. Every completed sweep.PointResult streams out of OnPoint
// into an append-only, length-prefixed file (<dir>/results/<id>.pnr) the
// moment it completes, so the server never retains a per-job O(points) result
// slice — a 10⁵-point sweep holds open one file descriptor and a 12-byte
// in-memory index entry per point, nothing else. Retrieval (status ?full=1,
// paginated /results, streaming /results.jsonl) reads frames straight back
// off disk, including for journal-recovered jobs: the spill file survives a
// SIGKILL alongside the WAL and is re-indexed on open with the same
// torn-tail tolerance as journal replay.
//
// File format, all integers big-endian:
//
//	8-byte magic "pnresv1\n"
//	repeated frames: [u32 payload length][u32 point index][payload]
//
// where payload is exactly sweep.PointResult.MarshalJSON's output — the
// loss-free codec — so streamed retrieval is byte-identical to what the
// in-memory path used to serve. Fsync discipline matches the WAL: the header
// reaches stable storage at create, frames are plain appends (a crash loses
// at most the frame in flight; every earlier point survives), and seal —
// called when the job goes terminal — fsyncs the tail.
//
// Failure containment mirrors the journal too: a failed append (disk full,
// injected fault) flips the file to degraded — the job keeps running and
// settling normally, already-spilled frames stay readable, only the
// not-yet-spilled payloads are lost to summary-only service. A failed create
// degrades the whole job the same way. Results are an availability surface,
// never a correctness dependency.

// resultMagic heads every spill file; a file without it is not ours (or is a
// torn create) and is re-created from scratch.
const resultMagic = "pnresv1\n"

// resultFrameOverhead is the per-frame header: payload length + point index.
const resultFrameOverhead = 8

// maxResultFrame bounds one frame's payload; larger lengths in a file mean
// corruption (a torn or overwritten tail), not data.
const maxResultFrame = 1 << 28 // 256 MiB

// resultSubdir keeps spill files out of the journal replay walk.
const resultSubdir = "results"

// resultStore hands out per-job spill files under one directory. A nil store
// (creation failed) degrades every job to summary-only; all methods are
// nil-safe, mirroring the journal.
type resultStore struct {
	dir string
	own bool // dir is a temp dir this store created; close removes it
}

// newResultStore places the store under journalDir/results when journalling
// is on — spill files then live next to the WALs they complement and survive
// restarts with them. Without a journal the store falls back to a private
// temp directory: results are still memory-bounded and streamable, they just
// die with the process like the jobs themselves. Returns nil (summary-only
// service) only when no directory can be created at all.
func newResultStore(journalDir string) *resultStore {
	if journalDir != "" {
		dir := filepath.Join(journalDir, resultSubdir)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			serveMetrics.Get().resultErrors.Inc()
			return nil
		}
		return &resultStore{dir: dir}
	}
	dir, err := os.MkdirTemp("", "pnserve-results-")
	if err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return nil
	}
	return &resultStore{dir: dir, own: true}
}

// path maps a job ID to its spill file ("" = unmappable).
func (rs *resultStore) path(id string) string {
	if rs == nil {
		return ""
	}
	return jobFile(rs.dir, id, ".pnr")
}

// open creates (or reopens, for journal recovery and resumed jobs) the spill
// file for a job of n points, scanning any existing frames into the index
// with torn tails truncated. Returns nil when the store is unavailable or
// the file cannot be opened — the job then runs summary-only.
func (rs *resultStore) open(id string, n int) *resultFile {
	p := rs.path(id)
	if p == "" || n <= 0 {
		return nil
	}
	m := serveMetrics.Get()
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		m.resultErrors.Inc()
		m.resultDegraded.Inc()
		return nil
	}
	rf := &resultFile{f: f, path: p, offsets: make([]int64, n), lengths: make([]int32, n)}
	for i := range rf.offsets {
		rf.offsets[i] = -1
	}
	if err := rf.scan(); err != nil {
		m.resultErrors.Inc()
		m.resultDegraded.Inc()
		f.Close()
		return nil
	}
	return rf
}

// openExisting reopens a spill file only if it already exists on disk —
// terminal-job recovery attaches whatever survived the crash without minting
// empty files for jobs journalled before the result store existed.
func (rs *resultStore) openExisting(id string, n int) *resultFile {
	p := rs.path(id)
	if p == "" {
		return nil
	}
	if _, err := os.Stat(p); err != nil {
		return nil
	}
	return rs.open(id, n)
}

// remove deletes a job's spill file (eviction, discarded submissions).
func (rs *resultStore) remove(id string) {
	if p := rs.path(id); p != "" {
		os.Remove(p)
	}
}

// close releases the store; a temp-dir store removes its directory.
func (rs *resultStore) close() {
	if rs != nil && rs.own {
		os.RemoveAll(rs.dir)
	}
}

// resultFile is one job's spill file plus its in-memory frame index. Methods
// are safe for concurrent use (the cluster runner delivers results from
// several worker streams at once) and nil-safe (a degraded or store-less job
// carries a nil file).
type resultFile struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	offsets  []int64 // payload byte offset per point index; -1 = not spilled
	lengths  []int32 // payload byte length per point index
	n        int     // frames present
	size     int64   // append position
	degraded bool    // an append failed: summary-only from here on
	sealed   bool
}

// scan validates the magic and indexes every complete frame, truncating the
// file at the first torn or corrupt one — exactly the journal's replay
// stance: keep every record that fully landed, drop the tail that did not.
// An empty or magic-less file is (re)initialised with a fsync'd header.
func (rf *resultFile) scan() error {
	info, err := rf.f.Stat()
	if err != nil {
		return err
	}
	var hdr [len(resultMagic)]byte
	if info.Size() >= int64(len(resultMagic)) {
		if _, err := rf.f.ReadAt(hdr[:], 0); err != nil {
			return err
		}
	}
	if string(hdr[:]) != resultMagic {
		// New file (or a torn create that never finished its header): start
		// clean. The header is fsync'd before any frame can follow it, the
		// same barrier the WAL puts before its 202.
		if err := rf.f.Truncate(0); err != nil {
			return err
		}
		if _, err := rf.f.WriteAt([]byte(resultMagic), 0); err != nil {
			return err
		}
		if err := rf.f.Sync(); err != nil {
			return err
		}
		rf.size = int64(len(resultMagic))
		return nil
	}
	off := int64(len(resultMagic))
	var fh [resultFrameOverhead]byte
	for {
		if off+resultFrameOverhead > info.Size() {
			break // torn frame header (or clean EOF)
		}
		if _, err := rf.f.ReadAt(fh[:], off); err != nil {
			break
		}
		plen := int64(binary.BigEndian.Uint32(fh[0:4]))
		idx := int(binary.BigEndian.Uint32(fh[4:8]))
		if plen <= 0 || plen > maxResultFrame || idx < 0 || idx >= len(rf.offsets) {
			break // corrupt header: truncate from here
		}
		if off+resultFrameOverhead+plen > info.Size() {
			break // torn payload
		}
		if rf.offsets[idx] < 0 {
			rf.offsets[idx] = off + resultFrameOverhead
			rf.lengths[idx] = int32(plen)
			rf.n++
		}
		off += resultFrameOverhead + plen
	}
	if off < info.Size() {
		if err := rf.f.Truncate(off); err != nil {
			return err
		}
		serveMetrics.Get().replayCorrupt.Inc()
	}
	rf.size = off
	return nil
}

// append spills one completed point. First writer per index wins — a resumed
// job re-reports pre-crash points, and the cluster path can race a reassigned
// lease against its original; the frame already on disk is the one that was
// already served. raw must be the point's loss-free codec bytes. A write
// failure (disk full, injected fault) degrades the file: the error is
// reported once, already-spilled frames stay readable, later appends no-op.
func (rf *resultFile) append(idx int, raw []byte) error {
	if rf == nil {
		return nil
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if idx < 0 || idx >= len(rf.offsets) || rf.offsets[idx] >= 0 || rf.degraded || rf.sealed {
		return nil
	}
	m := serveMetrics.Get()
	if err := faultinject.Fire(faultinject.ServeResultsWrite); err != nil {
		rf.degraded = true
		m.resultErrors.Inc()
		m.resultDegraded.Inc()
		return err
	}
	frame := make([]byte, resultFrameOverhead+len(raw))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(raw)))
	binary.BigEndian.PutUint32(frame[4:8], uint32(idx))
	copy(frame[resultFrameOverhead:], raw)
	if _, err := rf.f.WriteAt(frame, rf.size); err != nil {
		// A partial frame may be on disk; rewind so a later reopen's scan
		// does not have to. Failure to truncate is fine — scan would drop
		// the torn tail anyway.
		_ = rf.f.Truncate(rf.size)
		rf.degraded = true
		m.resultErrors.Inc()
		m.resultDegraded.Inc()
		return err
	}
	rf.offsets[idx] = rf.size + resultFrameOverhead
	rf.lengths[idx] = int32(len(raw))
	rf.size += int64(len(frame))
	rf.n++
	m.resultSpilled.Inc()
	m.resultBytes.Add(int64(len(frame)))
	return nil
}

// appendResult encodes and spills one result.
func (rf *resultFile) appendResult(res *sweep.PointResult) error {
	if rf == nil {
		return nil
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return rf.append(res.Index, raw)
}

// seal fsyncs the spilled frames once the job is terminal. The file handle
// stays open: retrieval keeps reading from it until eviction.
func (rf *resultFile) seal() {
	if rf == nil {
		return
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	if rf.sealed {
		return
	}
	rf.sealed = true
	if err := rf.f.Sync(); err != nil {
		serveMetrics.Get().resultErrors.Inc()
	}
}

// closeFile releases the descriptor (eviction).
func (rf *resultFile) closeFile() {
	if rf == nil {
		return
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.f.Close()
}

// frame reads one point's raw codec bytes; (nil, nil) when the point has not
// been spilled. The read fault point fires per frame, so an injected read
// failure surfaces as a partial page, not a wedged store.
func (rf *resultFile) frame(idx int) ([]byte, error) {
	if rf == nil {
		return nil, nil
	}
	rf.mu.Lock()
	off := int64(-1)
	var n int32
	if idx >= 0 && idx < len(rf.offsets) {
		off, n = rf.offsets[idx], rf.lengths[idx]
	}
	rf.mu.Unlock()
	if off < 0 {
		return nil, nil
	}
	if err := faultinject.Fire(faultinject.ServeResultsRead); err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := rf.f.ReadAt(buf, off); err != nil {
		serveMetrics.Get().resultErrors.Inc()
		return nil, fmt.Errorf("results: reading frame %d: %w", idx, err)
	}
	return buf, nil
}

// snapshot reports (frames spilled, total points, degraded).
func (rf *resultFile) snapshot() (n, total int, degraded bool) {
	if rf == nil {
		return 0, 0, true
	}
	rf.mu.Lock()
	defer rf.mu.Unlock()
	return rf.n, len(rf.offsets), rf.degraded
}

// page collects the raw frames for point indices [offset, offset+limit) in
// index order, skipping never-spilled slots (each payload carries its own
// "index" field, so sparse pages stay self-describing). The returned error
// is the first read failure; frames collected before it are still returned.
func (rf *resultFile) page(offset, limit int) ([]json.RawMessage, error) {
	if rf == nil {
		return nil, nil
	}
	total := len(rf.offsets)
	if offset < 0 {
		offset = 0
	}
	end := offset + limit
	if limit <= 0 || end > total {
		end = total
	}
	out := make([]json.RawMessage, 0, max(0, end-offset))
	for i := offset; i < end; i++ {
		raw, err := rf.frame(i)
		if err != nil {
			return out, err
		}
		if raw != nil {
			out = append(out, json.RawMessage(raw))
		}
	}
	return out, nil
}

// writeJSONL streams every spilled frame to w, one codec line per point in
// index order — the loss-free download path that replaces shipping the whole
// result set in one ?full=1 body. Returns the first write or read error.
func (rf *resultFile) writeJSONL(w io.Writer) error {
	if rf == nil {
		return errors.New("results: no spill file for this job")
	}
	for i := 0; i < len(rf.offsets); i++ {
		raw, err := rf.frame(i)
		if err != nil {
			return err
		}
		if raw == nil {
			continue
		}
		if _, err := w.Write(append(raw, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// decodeAll rebuilds the loss-free []sweep.PointResult from the spill file —
// the ?full=1 payload, now served from disk for live and journal-recovered
// jobs alike. Only complete sets are returned: a degraded or partially
// spilled job answers nil (summary-only), matching the old in-memory
// contract where Full was all-or-nothing.
func (rf *resultFile) decodeAll() []sweep.PointResult {
	if rf == nil {
		return nil
	}
	n, total, _ := rf.snapshot()
	if n != total {
		return nil
	}
	out := make([]sweep.PointResult, total)
	for i := 0; i < total; i++ {
		raw, err := rf.frame(i)
		if err != nil || raw == nil {
			return nil
		}
		if json.Unmarshal(raw, &out[i]) != nil {
			return nil
		}
	}
	return out
}
