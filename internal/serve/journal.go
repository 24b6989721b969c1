package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sweep"
	"repro/internal/wal"
)

// The job journal is the server's write-ahead durability layer: one record
// file (internal/wal) per job under Config.JournalDir. The first record is
// the job header (everything needed to re-create the job as pure data —
// kind, specs, knobs, idempotency fingerprint); every following record is one
// progress event exactly as a subscriber saw it (state transitions and
// per-point summaries, with their sequence numbers), each a JSON object.
//
// Lifecycle on disk:
//
//	<id>.wal    active job (accepted/queued/running). Appended as the job
//	            progresses; fsync'd at the header and at terminal events,
//	            best-effort in between — a lost tail costs progress replay,
//	            never correctness, because completed points live in the
//	            content-addressed result cache.
//	<id>.jsonl  terminal job, atomically rotated (fsync + rename) from the
//	            .wal once the terminal state event is durable (the name is
//	            historical: both are record files).
//
// On restart, replay walks the directory: .jsonl files restore queryable
// terminal jobs; .wal files restore the event history and re-enqueue the job
// — already-computed points come back as cache hits, only unfinished points
// recompute. Replay keeps every record before the first damaged one (the
// record file's one damage rule) and skips records that do not decode; a
// file that is not a record file, or whose header is unusable, is
// quarantined to <name>.corrupt instead of wedging startup.
const (
	walExt  = ".wal"
	doneExt = ".jsonl"
)

// journalSchemaVersion guards the record schema like the cache's disk
// envelope: records from a different version are ignored on replay.
const journalSchemaVersion = 1

// jrecord is one record of a job journal.
type jrecord struct {
	V int    `json:"v"`
	T string `json:"t"` // "accepted" or "event"
	// Header fields (T == "accepted").
	ID         string      `json:"id,omitempty"`
	Kind       string      `json:"kind,omitempty"`
	Specs      []PointSpec `json:"specs,omitempty"`
	TimeoutMS  int64       `json:"timeout_ms,omitempty"`
	Workers    int         `json:"workers,omitempty"`
	NoCache    bool        `json:"no_cache,omitempty"`
	LeaseTTLMS int64       `json:"lease_ttl_ms,omitempty"` // lease window; resumed jobs re-arm it
	Tenant     string      `json:"tenant,omitempty"`       // admission identity; recovery restores the in-flight slot
	Idem       string      `json:"idem,omitempty"`         // client Idempotency-Key, verbatim
	IdemFP     string      `json:"idem_fp,omitempty"`      // request-body fingerprint under that key
	Trace      string      `json:"trace,omitempty"`        // traceparent at submit; restarts keep the trace ID
	// Compose is the composition request of a "compose" job; a recovered job
	// re-runs the composition after its legs resolve (as cache hits).
	Compose *ComposeRequest `json:"compose,omitempty"`
	// Event field (T == "event").
	Ev *Event `json:"ev,omitempty"`
}

// journal manages the journal directory of one Server.
type journal struct {
	dir string
}

// openJournal prepares the directory and returns the highest job sequence
// number found in existing journal file names, so the server can continue its
// ID space without colliding with recovered jobs.
func openJournal(dir string) (*journal, int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: journal dir: %w", err)
	}
	var maxSeq int64
	for _, e := range ents {
		id := strings.TrimSuffix(strings.TrimSuffix(e.Name(), walExt), doneExt)
		if n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64); err == nil && n > maxSeq {
			maxSeq = n
		}
	}
	return &journal{dir: dir}, maxSeq, nil
}

// jobFile maps a job ID to its per-job file <dir>/<id><ext> — journal, spill
// or trace — and answers "" for a path-hostile ID (only the server mints
// IDs, but replayed headers are data).
func jobFile(dir, id, ext string) string {
	if id == "" || len(id) > 64 || strings.ContainsAny(id, "/\\.") {
		return ""
	}
	return filepath.Join(dir, id+ext)
}

// jobJournal is the append handle of one job's journal file. Methods are
// serialised by mu; every write failure (real or injected) is counted and
// swallowed — durability degrades, the job itself keeps running.
type jobJournal struct {
	jl *journal
	id string

	mu sync.Mutex
	f  *wal.File // nil once closed or rotated
}

// create opens a fresh .wal, writes the header record and fsyncs it, so an
// accepted job survives a crash from the moment the 202 goes out. A nil
// *journal (journalling off) returns a nil handle, on which every method is a
// no-op.
func (jl *journal) create(hdr jrecord) *jobJournal {
	if jl == nil {
		return nil
	}
	m := serveMetrics.Get()
	p := jobFile(jl.dir, hdr.ID, walExt)
	if p == "" {
		m.journalErrors.Inc()
		return nil
	}
	if faultinject.Fire(faultinject.ServeJournalWrite) != nil {
		m.journalErrors.Inc()
		return nil
	}
	f, _, err := wal.Open(p, nil)
	if err != nil {
		m.journalErrors.Inc()
		return nil
	}
	hdr.V = journalSchemaVersion
	hdr.T = "accepted"
	jj := &jobJournal{jl: jl, id: hdr.ID, f: f}
	if !jj.writeLocked(hdr, true) {
		_ = f.Close()
		return nil
	}
	return jj
}

// event appends one progress event. terminal events are fsync'd and rotate
// the file to its .jsonl resting name; intermediate events are written
// without an fsync (one per point would put a disk round-trip on the sweep
// hot path for durability the result cache already provides).
func (jj *jobJournal) event(ev Event, terminal bool) {
	if jj == nil {
		return
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if jj.f == nil {
		return
	}
	if faultinject.Fire(faultinject.ServeJournalWrite) != nil {
		serveMetrics.Get().journalErrors.Inc()
		return
	}
	if !jj.writeLocked(jrecord{V: journalSchemaVersion, T: "event", Ev: &ev}, terminal) {
		return
	}
	if terminal {
		jj.rotateLocked()
	}
}

// writeLocked marshals and appends one record, optionally flushing it to
// stable storage. Callers hold jj.mu (or own jj exclusively).
func (jj *jobJournal) writeLocked(rec jrecord, sync bool) bool {
	m := serveMetrics.Get()
	data, err := json.Marshal(rec)
	if err != nil {
		m.journalErrors.Inc()
		return false
	}
	if _, err := jj.f.Append(data); err != nil {
		m.journalErrors.Inc()
		return false
	}
	if sync {
		if err := jj.f.Sync(); err != nil {
			m.journalErrors.Inc()
			return false
		}
	}
	m.journalWrites.Inc()
	return true
}

// rotateLocked finalizes the journal: fsync, close, and atomically rename
// <id>.wal → <id>.jsonl, then fsync the directory so the rotation itself is
// durable. After rotation the handle is dead.
func (jj *jobJournal) rotateLocked() {
	m := serveMetrics.Get()
	_ = jj.f.Sync()
	_ = jj.f.Close()
	jj.f = nil
	src, dst := jobFile(jj.jl.dir, jj.id, walExt), jobFile(jj.jl.dir, jj.id, doneExt)
	if src == "" {
		m.journalErrors.Inc()
		return
	}
	if err := os.Rename(src, dst); err != nil {
		m.journalErrors.Inc()
		return
	}
	if d, err := os.Open(jj.jl.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// close finalizes the handle without rotating it: the file stays where it is
// (a resume-abort keeps its .wal for the next start; a dropped job's files
// are removed next).
func (jj *jobJournal) close() {
	if jj == nil {
		return
	}
	jj.mu.Lock()
	if jj.f != nil {
		_ = jj.f.Close()
		jj.f = nil
	}
	jj.mu.Unlock()
}

// remove deletes a job's journal files (called when the retention bound
// evicts a terminal job, so the directory does not grow without bound).
func (jl *journal) remove(id string) {
	if jl == nil {
		return
	}
	removeJobFile(jobFile(jl.dir, id, walExt))
	removeJobFile(jobFile(jl.dir, id, doneExt))
}

// removeJobFile deletes one per-job file, counting failures other than
// "already gone" as journal errors.
func removeJobFile(p string) {
	if p == "" {
		return
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		serveMetrics.Get().journalErrors.Inc()
	}
}

// recoveredJob is one job reconstructed from its journal during replay.
type recoveredJob struct {
	hdr      jrecord
	events   []Event
	state    string             // last journaled state (StateQueued when none)
	err      *sweep.RemoteError // terminal error, when journaled
	terminal bool
	// f is the open handle of an active .wal (the job may need re-enqueueing
	// and keeps appending to it); nil for a rotated .jsonl.
	f *wal.File
}

// replay reads every journal file in the directory and reconstructs its job.
// The returned jobs are sorted by numeric ID so re-enqueue order matches
// original submission order; the caller owns their .wal handles.
func (jl *journal) replay() []recoveredJob {
	if jl == nil {
		return nil
	}
	ents, err := os.ReadDir(jl.dir)
	if err != nil {
		serveMetrics.Get().journalErrors.Inc()
		return nil
	}
	var out []recoveredJob
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, walExt) && !strings.HasSuffix(name, doneExt) {
			continue
		}
		if rj, ok := jl.replayFile(filepath.Join(jl.dir, name), strings.HasSuffix(name, walExt)); ok {
			out = append(out, rj)
		}
	}
	sortRecovered(out)
	return out
}

// replayFile reads one journal file. Undecodable event records are skipped
// (counted); ok=false means no usable job. A file that is not a record file
// or whose header is unusable is quarantined to <name>.corrupt, so the next
// start is clean and the operator can inspect it; an unreadable one is left
// for the next start.
func (jl *journal) replayFile(path string, active bool) (rj recoveredJob, ok bool) {
	m := serveMetrics.Get()
	rj.state = StateQueued
	first, badHeader := true, false
	f, cut, err := wal.Open(path, func(_ int64, data []byte) {
		var rec jrecord
		derr := json.Unmarshal(data, &rec)
		if first {
			first = false
			badHeader = derr != nil || rec.V != journalSchemaVersion || rec.T != "accepted" || rec.ID == "" ||
				(len(rec.Specs) == 0 && rec.Compose == nil)
			rj.hdr = rec
			return
		}
		// Sequence numbers must stay a contiguous 1..n prefix for SSE replay;
		// a gap means lost records, so the restored history stops there.
		if derr != nil || rec.V != journalSchemaVersion || rec.T != "event" || rec.Ev == nil ||
			rec.Ev.Seq != int64(len(rj.events))+1 {
			m.replayCorrupt.Inc()
			return
		}
		rj.events = append(rj.events, *rec.Ev)
		if rec.Ev.Type == "state" {
			rj.state = rec.Ev.State
			if TerminalState(rec.Ev.State) {
				rj.terminal = true
				rj.err = rec.Ev.Error
			}
		}
	})
	switch {
	case errors.Is(err, wal.ErrCorrupt): // quarantined by wal.Open
		m.replayCorrupt.Inc()
		return recoveredJob{}, false
	case err != nil:
		m.journalErrors.Inc()
		return recoveredJob{}, false
	}
	if cut {
		m.replayCorrupt.Inc()
	}
	if first || badHeader {
		_ = f.Close()
		m.replayCorrupt.Inc()
		_ = os.Rename(path, path+".corrupt")
		return recoveredJob{}, false
	}
	if active {
		rj.f = f
		return rj, true
	}
	_ = f.Close()
	if !rj.terminal {
		// A journal is rotated only after its terminal event is durable, so a
		// rotated one without it lost its tail to damage. Nothing will ever
		// run the job again: restore it failed rather than running forever.
		last := int64(len(rj.events))
		rj.state, rj.terminal = StateFailed, true
		rj.err = &sweep.RemoteError{Msg: fmt.Sprintf("journal damaged after event seq %d: terminal state lost", last)}
		rj.events = append(rj.events, Event{Seq: last + 1, Type: "state", State: StateFailed, Error: rj.err})
	}
	return rj, true
}

// sortRecovered orders jobs by their numeric ID (j1, j2, ...) so recovery
// re-enqueues in original submission order; non-numeric IDs sort last,
// lexicographically.
func sortRecovered(jobs []recoveredJob) {
	num := func(id string) int64 {
		n, err := strconv.ParseInt(strings.TrimPrefix(id, "j"), 10, 64)
		if err != nil {
			return 1<<63 - 1
		}
		return n
	}
	slices.SortStableFunc(jobs, func(a, b recoveredJob) int {
		if c := cmp.Compare(num(a.hdr.ID), num(b.hdr.ID)); c != 0 {
			return c
		}
		return strings.Compare(a.hdr.ID, b.hdr.ID)
	})
}
