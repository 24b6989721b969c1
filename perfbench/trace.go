package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// The benchmark's own spans, recorded from outside the program around calls
// into each layer's public functions. A nil *tracer records nothing, so the
// untraced run pays only a nil check per call site.

type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Req    string             `json:"req,omitempty"`
	Name   string             `json:"name"`
	Key    string             `json:"key,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// live is an open span; nil when tracing is off.
type live struct {
	tr *tracer
	s  span
}

func (t *tracer) start(parent *live, name, req string) *live {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := span{ID: id, Name: name, Req: req, Start: time.Since(t.t0).Nanoseconds()}
	if parent != nil {
		s.Parent = parent.s.ID
		if req == "" {
			s.Req = parent.s.Req
		}
	}
	return &live{tr: t, s: s}
}

func (l *live) set(k string, v float64) {
	if l == nil {
		return
	}
	if l.s.Attrs == nil {
		l.s.Attrs = map[string]float64{}
	}
	l.s.Attrs[k] = v
}

func (l *live) key(k string) {
	if l != nil {
		l.s.Key = k
	}
}

func (l *live) end() { l.endAt(time.Now()) }

func (l *live) endAt(t time.Time) {
	if l == nil {
		return
	}
	l.s.End = t.Sub(l.tr.t0).Nanoseconds()
	l.tr.mu.Lock()
	l.tr.spans = append(l.tr.spans, l.s)
	l.tr.mu.Unlock()
}

// record adds a finished span whose bounds were observed rather than wrapped
// (state times from the SSE stream).
func (t *tracer) record(parent *live, name string, from, to time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	l := t.start(parent, name, "")
	l.s.Start = from.Sub(t.t0).Nanoseconds()
	l.s.Attrs = attrs
	l.endAt(to)
}

type spanKey struct{}

func withSpan(ctx context.Context, l *live) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, l)
}

func spanFrom(ctx context.Context) *live {
	l, _ := ctx.Value(spanKey{}).(*live)
	return l
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readJSONL(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// selfTimes returns, per span name, the count, total and self time in ms. A
// span's self time is its duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*nameStat {
	children := map[int64][]int{}
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	out := map[string]*nameStat{}
	for i := range spans {
		s := &spans[i]
		var iv [][2]int64
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), int64(-1<<62)
		for _, x := range iv {
			if x[0] > end {
				covered += x[1] - x[0]
				end = x[1]
			} else if x[1] > end {
				covered += x[1] - end
				end = x[1]
			}
		}
		st := out[s.Name]
		if st == nil {
			st = &nameStat{}
			out[s.Name] = st
		}
		st.count++
		st.totalMS += s.ms()
		st.selfMS += float64(s.End-s.Start-covered) / 1e6
		st.durs = append(st.durs, s.ms())
	}
	return out
}

type nameStat struct {
	count           int
	totalMS, selfMS float64
	durs            []float64
}
