package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span, serialised as a single JSON line. Timestamps
// are derived from one process-local monotonic epoch, so within a process
// events carry strictly consistent ordering: a child's start never precedes
// its parent's, and End times respect call order even across goroutines.
// Trace and Proc tie events from different processes into one distributed
// timeline: span IDs are only unique per process, so (Proc, Span) is the
// globally unique key.
type Event struct {
	Type    string         `json:"type"` // "span", or a marker kind ("flight", "resume")
	Name    string         `json:"name"`
	Trace   string         `json:"trace,omitempty"` // 32-hex trace ID shared across processes
	Proc    string         `json:"proc,omitempty"`  // emitting process, host:pid
	Span    uint64         `json:"span"`
	Parent  uint64         `json:"parent,omitempty"` // 0 for root spans
	StartNS int64          `json:"start_unix_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Emitter receives completed span events. Implementations must be safe for
// concurrent use; the pipeline emits from worker goroutines.
type Emitter interface {
	Emit(Event)
}

type emitterRef struct{ e Emitter }

var globalEmitter atomic.Pointer[emitterRef]

// SetEmitter installs (or, with nil, removes) the process-wide span emitter.
// While no emitter is installed, StartSpan returns nil spans and tracing is
// allocation-free.
func SetEmitter(e Emitter) {
	if e == nil {
		globalEmitter.Store(nil)
		return
	}
	globalEmitter.Store(&emitterRef{e: e})
}

// CurrentEmitter returns the process-wide emitter, or nil when tracing is off.
func CurrentEmitter() Emitter {
	if ref := globalEmitter.Load(); ref != nil {
		return ref.e
	}
	return nil
}

var spanIDs atomic.Uint64

// Span IDs start from a per-process random base so that spans minted by
// different processes in the same distributed trace cannot collide. Sequential
// counting from the base keeps allocation at zero per span.
func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		spanIDs.Store(binary.LittleEndian.Uint64(b[:]))
	}
}

// epoch anchors all span timestamps to a single time.Now() carrying a
// monotonic reading: now() = epoch + monotonic elapsed, so wall-clock steps
// cannot produce non-monotonic or negative-duration events.
var epoch = time.Now()

func tnow() time.Time { return epoch.Add(time.Since(epoch)) }

// SpanContext is the portable identity of a span — what crosses a process
// boundary in a traceparent header. Span is the remote parent's ID; a zero
// Span with a non-empty Trace joins the trace as a root.
type SpanContext struct {
	Trace string // 32 lowercase hex chars
	Span  uint64
}

// NewTraceID mints a random 32-hex trace identifier.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fallback: derive from the span counter; still unique per process.
		binary.LittleEndian.PutUint64(b[:8], spanIDs.Add(1))
		binary.LittleEndian.PutUint64(b[8:], uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// Traceparent renders the context in W3C traceparent layout:
// "00-<32 hex trace>-<16 hex span>-01". Empty when the context has no trace.
func (sc SpanContext) Traceparent() string {
	if sc.Trace == "" {
		return ""
	}
	return fmt.Sprintf("00-%s-%016x-01", sc.Trace, sc.Span)
}

// ParseTraceparent parses a W3C-style traceparent header produced by
// Traceparent. Returns ok=false on any malformed input.
func ParseTraceparent(s string) (SpanContext, bool) {
	// 2 (version) + 1 + 32 (trace) + 1 + 16 (span) + 1 + 2 (flags)
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	// Trace context IDs are lowercase hex only: accepting uppercase would let
	// one trace arrive under two spellings of its ID.
	if strings.ToLower(s[3:52]) != s[3:52] {
		return SpanContext{}, false
	}
	trace := s[3:35]
	if _, err := hex.DecodeString(trace); err != nil {
		return SpanContext{}, false
	}
	span, err := hex.DecodeString(s[36:52])
	if err != nil {
		return SpanContext{}, false
	}
	return SpanContext{Trace: trace, Span: binary.BigEndian.Uint64(span)}, true
}

type spanCtxKey struct{}

// ContextWithSpanContext attaches sc to ctx so transport clients can inject
// it into outgoing requests.
func ContextWithSpanContext(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanContextFrom extracts a SpanContext previously attached with
// ContextWithSpanContext.
func SpanContextFrom(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Trace != ""
}

// Span is one timed operation. Create with StartSpan, finish with End (or
// EndErr); attributes attached before End are carried on the emitted Event.
// All methods are safe on a nil receiver — a nil span is the "tracing off"
// value — and safe for concurrent use (a supervisor may End a span whose
// worker goroutine is still trying to annotate it; the first End wins and
// later calls are no-ops).
type Span struct {
	em     Emitter
	name   string
	trace  string
	id     uint64
	parent uint64
	start  time.Time

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// StartSpan opens a span under parent. A nil parent starts a root span on the
// process-wide emitter; if that is nil too (tracing off), StartSpan returns a
// nil span and the whole subtree is free.
func StartSpan(parent *Span, name string) *Span {
	var em Emitter
	var pid uint64
	var trace string
	if parent != nil {
		em = parent.em
		pid = parent.id
		trace = parent.trace
	} else {
		em = CurrentEmitter()
	}
	if em == nil {
		return nil
	}
	return &Span{
		em:     em,
		name:   name,
		trace:  trace,
		id:     spanIDs.Add(1),
		parent: pid,
		start:  tnow(),
	}
}

// StartSpanIn opens a root span on an explicit emitter, joining the trace
// described by pctx (typically parsed from an incoming traceparent header).
// An empty pctx.Trace mints a fresh trace ID. A nil em falls back to the
// process-wide emitter; if that is nil too, the span is nil and free.
func StartSpanIn(em Emitter, pctx SpanContext, name string) *Span {
	if em == nil {
		em = CurrentEmitter()
	}
	if em == nil {
		return nil
	}
	trace := pctx.Trace
	if trace == "" {
		trace = NewTraceID()
	}
	return &Span{
		em:     em,
		name:   name,
		trace:  trace,
		id:     spanIDs.Add(1),
		parent: pctx.Span,
		start:  tnow(),
	}
}

// StartSpanOn opens a child of parent that emits to em instead of the
// parent's emitter — used to tee an attempt's subtree into a flight-recorder
// ring while keeping its place in the trace. A nil em returns a nil span.
func StartSpanOn(em Emitter, parent *Span, name string) *Span {
	if em == nil {
		return nil
	}
	var pid uint64
	var trace string
	if parent != nil {
		pid = parent.id
		trace = parent.trace
	}
	return &Span{
		em:     em,
		name:   name,
		trace:  trace,
		id:     spanIDs.Add(1),
		parent: pid,
		start:  tnow(),
	}
}

// ID returns the span's process-unique id (0 on a nil receiver).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Context returns the span's portable identity for propagation across a
// process boundary. Zero on a nil receiver.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// Emitter returns the emitter this span reports to (nil on a nil receiver).
func (s *Span) Emitter() Emitter {
	if s == nil {
		return nil
	}
	return s.em
}

// SetAttr attaches a key/value attribute. Values must be JSON-marshalable.
// Calls after End are dropped.
func (s *Span) SetAttr(key string, v any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = v
}

// End closes the span and emits its Event. Idempotent: only the first call
// emits.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := tnow()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.em.Emit(Event{
		Type:    "span",
		Name:    s.name,
		Trace:   s.trace,
		Span:    s.id,
		Parent:  s.parent,
		StartNS: s.start.UnixNano(),
		DurNS:   int64(end.Sub(s.start)),
		Attrs:   attrs,
	})
}

// EndErr records err (when non-nil) as the "error" attribute and ends the
// span.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetAttr("error", err.Error())
	}
	s.End()
}

// JSONLEmitter serialises events as JSON lines to an io.Writer (typically a
// file). Emissions are serialised by a mutex; encoding errors are dropped —
// tracing must never fail the pipeline.
type JSONLEmitter struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLEmitter wraps w. The caller owns w's lifetime (close it after the
// last span has ended).
func NewJSONLEmitter(w io.Writer) *JSONLEmitter {
	return &JSONLEmitter{enc: json.NewEncoder(w)}
}

// Emit implements Emitter.
func (e *JSONLEmitter) Emit(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = e.enc.Encode(ev)
}

// RingEmitter keeps the last N events in memory — the in-process flight
// recorder used by tests, examples, and post-mortem dumps.
type RingEmitter struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// NewRingEmitter returns a ring holding the most recent capacity events.
func NewRingEmitter(capacity int) *RingEmitter {
	if capacity < 1 {
		capacity = 1
	}
	return &RingEmitter{buf: make([]Event, capacity)}
}

// Emit implements Emitter.
func (e *RingEmitter) Emit(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.buf[e.next] = ev
	e.next++
	if e.next == len(e.buf) {
		e.next = 0
		e.full = true
	}
}

// Events returns the retained events, oldest first.
func (e *RingEmitter) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.full {
		return append([]Event(nil), e.buf[:e.next]...)
	}
	out := make([]Event, 0, len(e.buf))
	out = append(out, e.buf[e.next:]...)
	out = append(out, e.buf[:e.next]...)
	return out
}

// Len returns the number of retained events.
func (e *RingEmitter) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.full {
		return len(e.buf)
	}
	return e.next
}

type teeEmitter struct{ ems []Emitter }

func (t *teeEmitter) Emit(ev Event) {
	for _, e := range t.ems {
		e.Emit(ev)
	}
}

// Tee fans each event out to every non-nil emitter. Nil arguments are
// skipped; with zero live emitters Tee returns nil, with one it returns that
// emitter unwrapped. Callers must pass concrete nils (typed-nil interface
// values are not filtered).
func Tee(ems ...Emitter) Emitter {
	live := make([]Emitter, 0, len(ems))
	for _, e := range ems {
		if e != nil {
			live = append(live, e)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &teeEmitter{ems: live}
}
