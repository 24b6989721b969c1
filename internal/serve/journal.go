package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/sweep"
)

// The job journal is the server's write-ahead durability layer: one
// append-only JSONL file per job under Config.JournalDir. The first line is
// the job header (everything needed to re-create the job as pure data —
// kind, specs, knobs, idempotency fingerprint); every following line is one
// progress event exactly as a subscriber saw it (state transitions and
// per-point summaries, with their sequence numbers).
//
// Lifecycle on disk:
//
//	<id>.wal    active job (accepted/queued/running). Appended as the job
//	            progresses; fsync'd at the header and at terminal events,
//	            best-effort in between — a lost tail costs progress replay,
//	            never correctness, because completed points live in the
//	            content-addressed result cache.
//	<id>.jsonl  terminal job, atomically rotated (fsync + rename) from the
//	            .wal once the terminal state event is durable.
//
// On restart, replay walks the directory: .jsonl files restore queryable
// terminal jobs; .wal files restore the event history and re-enqueue the job
// — already-computed points come back as cache hits, only unfinished points
// recompute. Replay is corruption-tolerant line by line: a torn final line
// (the normal crash artifact) or a garbage line is skipped, and a file whose
// header is unreadable is quarantined to <name>.corrupt instead of wedging
// startup.
const (
	walExt  = ".wal"
	doneExt = ".jsonl"
)

// journalSchemaVersion guards the record schema like the cache's disk
// envelope: records from a different version are ignored on replay.
const journalSchemaVersion = 1

// jrecord is one JSONL line of a job journal.
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

	mu        sync.Mutex
	f         *os.File
	enc       *bufio.Writer
	finalized bool
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
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		m.journalErrors.Inc()
		return nil
	}
	hdr.V = journalSchemaVersion
	hdr.T = "accepted"
	jj := &jobJournal{jl: jl, id: hdr.ID, f: f, enc: bufio.NewWriter(f)}
	if !jj.writeLocked(hdr, true) {
		_ = f.Close()
		return nil
	}
	return jj
}

// reopen continues an existing .wal of a recovered job in append mode.
func (jl *journal) reopen(id string) *jobJournal {
	if jl == nil {
		return nil
	}
	p := jobFile(jl.dir, id, walExt)
	if p == "" {
		return nil
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		serveMetrics.Get().journalErrors.Inc()
		return nil
	}
	return &jobJournal{jl: jl, id: id, f: f, enc: bufio.NewWriter(f)}
}

// event appends one progress event. terminal events are fsync'd and rotate
// the file to its .jsonl resting name; intermediate events are buffered
// best-effort (an fsync per point would put a disk round-trip on the sweep
// hot path for durability the result cache already provides).
func (jj *jobJournal) event(ev Event, terminal bool) {
	if jj == nil {
		return
	}
	jj.mu.Lock()
	defer jj.mu.Unlock()
	if jj.finalized || jj.f == nil {
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
	if _, err := jj.enc.Write(append(data, '\n')); err != nil {
		m.journalErrors.Inc()
		return false
	}
	if sync {
		if err := jj.enc.Flush(); err != nil {
			m.journalErrors.Inc()
			return false
		}
		if err := jj.f.Sync(); err != nil {
			m.journalErrors.Inc()
			return false
		}
	}
	m.journalWrites.Inc()
	return true
}

// rotateLocked finalizes the journal: flush, fsync, close, and atomically
// rename <id>.wal → <id>.jsonl, then fsync the directory so the rotation
// itself is durable. After rotation the handle is dead.
func (jj *jobJournal) rotateLocked() {
	m := serveMetrics.Get()
	jj.finalized = true
	_ = jj.enc.Flush()
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
	jj.finalized = true
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
	wal      bool // true when read from an active .wal (may need re-enqueue)
}

// replay reads every journal file in the directory and reconstructs its job.
// Corrupt lines are skipped (counted); files without a usable header are
// quarantined. The returned jobs are sorted by numeric ID so re-enqueue order
// matches original submission order.
func (jl *journal) replay() []recoveredJob {
	if jl == nil {
		return nil
	}
	m := serveMetrics.Get()
	ents, err := os.ReadDir(jl.dir)
	if err != nil {
		m.journalErrors.Inc()
		return nil
	}
	var out []recoveredJob
	for _, e := range ents {
		name := e.Name()
		var wal bool
		switch {
		case strings.HasSuffix(name, walExt):
			wal = true
		case strings.HasSuffix(name, doneExt):
		default:
			continue
		}
		rj, ok := jl.replayFile(filepath.Join(jl.dir, name), wal)
		if !ok {
			// No usable header: quarantine so the next start is clean and the
			// operator can inspect the file.
			m.replayCorrupt.Inc()
			_ = os.Rename(filepath.Join(jl.dir, name), filepath.Join(jl.dir, name+".corrupt"))
			continue
		}
		out = append(out, rj)
	}
	sortRecovered(out)
	return out
}

// replayFile parses one journal file. It returns ok=false only when the
// header is unusable; event-line corruption is tolerated record by record.
func (jl *journal) replayFile(path string, wal bool) (recoveredJob, bool) {
	m := serveMetrics.Get()
	f, err := os.Open(path)
	if err != nil {
		m.journalErrors.Inc()
		return recoveredJob{}, false
	}
	defer f.Close()

	rj := recoveredJob{state: StateQueued, wal: wal}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec jrecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.V != journalSchemaVersion {
			m.replayCorrupt.Inc()
			if first {
				return recoveredJob{}, false
			}
			continue // torn or garbage line: skip, keep what parsed
		}
		if first {
			if rec.T != "accepted" || rec.ID == "" || (len(rec.Specs) == 0 && rec.Compose == nil) {
				return recoveredJob{}, false
			}
			rj.hdr = rec
			first = false
			continue
		}
		if rec.T != "event" || rec.Ev == nil {
			m.replayCorrupt.Inc()
			continue
		}
		// Sequence numbers must stay a contiguous 1..n prefix for SSE replay;
		// a gap means lost lines, so truncate the restored history there.
		if rec.Ev.Seq != int64(len(rj.events))+1 {
			m.replayCorrupt.Inc()
			continue
		}
		rj.events = append(rj.events, *rec.Ev)
		if rec.Ev.Type == "state" {
			rj.state = rec.Ev.State
			if TerminalState(rec.Ev.State) {
				rj.terminal = true
				rj.err = rec.Ev.Error
			}
		}
	}
	if first {
		return recoveredJob{}, false // empty or header-only-corrupt file
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
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0; j-- {
			a, b := jobs[j-1], jobs[j]
			if num(a.hdr.ID) < num(b.hdr.ID) || (num(a.hdr.ID) == num(b.hdr.ID) && a.hdr.ID <= b.hdr.ID) {
				break
			}
			jobs[j-1], jobs[j] = b, a
		}
	}
}
