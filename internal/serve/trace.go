package serve

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/wal"
)

// The job trace is the distributed-tracing sibling of the job journal: every
// job owns a bounded buffer of completed span events — its own (the serve.job
// root span and the whole sweep subtree under it) plus events ingested from
// worker nodes via the coordinator's trace pull. With journalling on, each
// event is also appended to the record file <JournalDir>/traces/<jobID>.jsonl
// as it arrives (one unsynced write per event: a SIGKILL loses at most the
// record in flight), so a restarted coordinator still serves the pre-crash
// timeline. The traces/ subdirectory keeps trace files out of the
// job-journal replay walk.

// traceSubdir is the journal subdirectory holding per-job trace files.
const traceSubdir = "traces"

// defaultTraceCap bounds a job's in-memory (and on-disk) trace buffer.
const defaultTraceCap = 4096

// procID identifies this process in multi-process traces.
var procID = func() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "unknown"
	}
	return host + ":" + strconv.Itoa(os.Getpid())
}()

// jobTrace collects one job's distributed timeline. It implements
// obs.Emitter for locally produced spans; worker-shipped batches arrive
// through ingest. Events are deduplicated by (proc, span) — a coordinator
// restart re-pulls worker traces, and re-dispatched leases dedup onto the
// same worker job — and the buffer is capped: once full, new events are
// dropped and counted rather than growing without bound.
type jobTrace struct {
	trace string // trace ID stamped on locally emitted events

	mu      sync.Mutex
	evs     []obs.Event
	seen    map[string]struct{}
	dropped int
	f       *wal.File // nil: memory-only (no journal dir) or closed
	cap     int
}

// recoveredTraceCtx restores a job's span context from the journalled
// traceparent string; pre-trace journals (or a corrupt header field) get a
// fresh trace ID so the recovered job still has a coherent timeline.
func recoveredTraceCtx(traceparent string) obs.SpanContext {
	if sc, ok := obs.ParseTraceparent(traceparent); ok {
		return sc
	}
	return obs.SpanContext{Trace: obs.NewTraceID()}
}

// tracePath maps a job ID into the traces subdirectory ("" when journalling
// is off or the ID is path-hostile).
func tracePath(journalDir, id string) string {
	if journalDir == "" {
		return ""
	}
	return jobFile(filepath.Join(journalDir, traceSubdir), id, ".jsonl")
}

// newJobTrace opens a job's trace; path == "" keeps it memory-only. An
// existing trace file — a recovered job's — is reloaded first, so a
// restarted coordinator keeps extending the same timeline.
func newJobTrace(traceID, path string) *jobTrace {
	t := &jobTrace{trace: traceID, seen: make(map[string]struct{}), cap: defaultTraceCap}
	if path == "" {
		return t
	}
	err := os.MkdirAll(filepath.Dir(path), 0o755)
	if err == nil {
		// t.f is still nil while reloading, so record buffers and dedups the
		// old events without writing them again.
		t.f, _, err = wal.Open(path, func(_ int64, rec []byte) {
			var ev obs.Event
			if json.Unmarshal(rec, &ev) == nil {
				t.record(ev, false)
			}
		})
	}
	if err != nil {
		serveMetrics.Get().journalErrors.Inc()
	}
	return t
}

// dedupKey identifies an event across re-ingests. Span 0 (marker events)
// falls back to the start timestamp so distinct markers are not collapsed.
func dedupKey(ev obs.Event) string {
	if ev.Span != 0 {
		return ev.Proc + "|" + strconv.FormatUint(ev.Span, 16)
	}
	return ev.Proc + "|" + ev.Name + "@" + strconv.FormatInt(ev.StartNS, 10)
}

// Emit implements obs.Emitter for locally produced spans: stamp this
// process's identity and the job's trace ID, then record.
func (t *jobTrace) Emit(ev obs.Event) {
	if t == nil {
		return
	}
	if ev.Proc == "" {
		ev.Proc = procID
	}
	if ev.Trace == "" {
		ev.Trace = t.trace
	}
	t.record(ev, true)
}

// ingest folds a batch of events into the timeline, preserving Proc/Trace
// stamps where present. Events without a Proc (coordinator-side flight dumps
// and markers) were produced in this process and are stamped accordingly, so
// their dedup keys match any live-emitted copies of the same spans.
func (t *jobTrace) ingest(evs []obs.Event) {
	if t == nil {
		return
	}
	m := serveMetrics.Get()
	for _, ev := range evs {
		if ev.Proc == "" {
			ev.Proc = procID
		}
		if ev.Trace == "" {
			ev.Trace = t.trace
		}
		if t.record(ev, false) {
			m.traceIngested.Inc()
		}
	}
}

// record dedups, buffers, counts, and appends to the trace file. Returns
// whether the event was kept.
func (t *jobTrace) record(ev obs.Event, local bool) bool {
	m := serveMetrics.Get()
	t.mu.Lock()
	key := dedupKey(ev)
	if _, dup := t.seen[key]; dup {
		t.mu.Unlock()
		return false
	}
	if len(t.evs) >= t.cap {
		t.dropped++
		t.mu.Unlock()
		m.traceDropped.Inc()
		return false
	}
	t.seen[key] = struct{}{}
	t.evs = append(t.evs, ev)
	f := t.f
	var rec []byte
	if f != nil {
		rec, _ = json.Marshal(ev)
	}
	t.mu.Unlock()
	if local {
		m.traceSpans.Inc()
	}
	if rec != nil {
		// No fsync: a torn tail is cut on reload, and an fsync per span
		// would tax the sweep path for little — the buffer is the primary
		// copy while the process lives.
		if _, err := f.Append(rec); err != nil {
			m.journalErrors.Inc()
		}
	}
	return true
}

// snapshot copies the timeline (and the drop count) for the API.
func (t *jobTrace) snapshot() ([]obs.Event, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]obs.Event(nil), t.evs...), t.dropped
}

// close releases the file handle (the buffer stays queryable).
func (t *jobTrace) close() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.f != nil {
		_ = t.f.Close()
		t.f = nil
	}
	t.mu.Unlock()
}

// renderTrace builds the API view: the raw timeline plus per-stage and
// per-process latency rollups (markers — flight dumps, resume records — are
// listed but not aggregated).
func renderTrace(jobID string, trace string, evs []obs.Event, dropped int) JobTrace {
	jt := JobTrace{JobID: jobID, TraceID: trace, Spans: evs, Dropped: dropped}
	stageIdx := map[string]int{}
	procIdx := map[string]int{}
	for _, ev := range evs {
		if ev.Type != "span" {
			continue
		}
		ms := float64(ev.DurNS) / 1e6
		si, ok := stageIdx[ev.Name]
		if !ok {
			si = len(jt.Stages)
			stageIdx[ev.Name] = si
			jt.Stages = append(jt.Stages, TraceStage{Name: ev.Name})
		}
		st := &jt.Stages[si]
		st.Count++
		st.TotalMS += ms
		if ms > st.MaxMS {
			st.MaxMS = ms
		}
		pi, ok := procIdx[ev.Proc]
		if !ok {
			pi = len(jt.Procs)
			procIdx[ev.Proc] = pi
			jt.Procs = append(jt.Procs, TraceProc{Proc: ev.Proc})
		}
		jt.Procs[pi].Spans++
		jt.Procs[pi].TotalMS += ms
	}
	return jt
}
