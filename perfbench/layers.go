package main

import (
	"fmt"
	"sort"
	"strings"
)

// Per-layer metrics, all computed from a traced run's span JSONL, so the
// reported numbers and the layer table agree. Each names the end-to-end
// metric and workload it should move. A layer a workload bypasses reports 0
// with n = 0.

type layerValue struct {
	value float64
	n     int
}

type layerDef struct {
	name, unit, moves string
	f                 func(ix *spanIndex) layerValue
}

type spanIndex struct {
	byName   map[string][]*span
	byID     map[int64]*span
	children map[int64][]*span
	all      []span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byName: map[string][]*span{}, byID: map[int64]*span{}, children: map[int64][]*span{}, all: spans}
	for i := range spans {
		s := &spans[i]
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		ix.byID[s.ID] = s
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
	}
	return ix
}

func (ix *spanIndex) durs(name string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		out = append(out, s.ms())
	}
	return out
}

func (ix *spanIndex) attrs(name, attr string) []float64 {
	var out []float64
	for _, s := range ix.byName[name] {
		if v, ok := s.Attrs[attr]; ok {
			out = append(out, v)
		}
	}
	return out
}

// prefixed returns the transport spans of one HTTP client ("http" for the
// benchmark's clients, "cluster.worker" for the coordinator's).
func (ix *spanIndex) prefixed(prefix string) []*span {
	var out []*span
	for i := range ix.all {
		if strings.HasPrefix(ix.all[i].Name, prefix+" ") {
			out = append(out, &ix.all[i])
		}
	}
	return out
}

// descendant finds the first span named name under s.
func (ix *spanIndex) descendant(s *span, name string) *span {
	for _, c := range ix.children[s.ID] {
		if c.Name == name {
			return c
		}
		if d := ix.descendant(c, name); d != nil {
			return d
		}
	}
	return nil
}

func p50(xs []float64) layerValue { return layerValue{pct(xs, 50), len(xs)} }

func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(xs, p)
}

func p50ms(name string) func(*spanIndex) layerValue {
	return func(ix *spanIndex) layerValue { return p50(ix.durs(name)) }
}

func p50attr(name, attr string, scale float64) func(*spanIndex) layerValue {
	return func(ix *spanIndex) layerValue {
		xs := ix.attrs(name, attr)
		for i := range xs {
			xs[i] *= scale
		}
		return p50(xs)
	}
}

func sumAttr(name, attr string, scale float64) func(*spanIndex) layerValue {
	return func(ix *spanIndex) layerValue {
		xs := ix.attrs(name, attr)
		t := 0.0
		for _, x := range xs {
			t += x * scale
		}
		return layerValue{t, len(xs)}
	}
}

func httpMB(prefix string, attrs ...string) func(*spanIndex) layerValue {
	return func(ix *spanIndex) layerValue {
		spans := ix.prefixed(prefix)
		t := 0.0
		for _, s := range spans {
			for _, a := range attrs {
				t += s.Attrs[a] / 1e6
			}
		}
		return layerValue{t, len(spans)}
	}
}

const (
	movesWarmP50    = "latency_p50_ms on interactive-warm"
	movesColdP50    = "latency_p50_ms on interactive-cold"
	movesClusterPPS = "points_per_s on sweep-cluster"
	movesLocalPPS   = "points_per_s on sweep-local"
	movesPipeline   = "latency_p50_ms on interactive-cold, points_per_s on sweep-local; none on interactive-warm"
	movesCodec      = "latency_p50_ms on both interactive workloads, points_per_s on sweep-cluster; none on sweep-local"
)

var layerDefs = []layerDef{
	{"serve.admit_ms_p50", "ms", movesWarmP50, p50ms("serve.admit")},
	{"serve.queue_ms_p50", "ms", "latency_p90_ms on interactive-cold", p50ms("serve.queue")},
	{"serve.run_ms_p50", "ms", "latency_p50_ms on the HTTP workloads", p50ms("serve.run")},
	{"serve.fetch_ms_p50", "ms", "latency_p50_ms on sweep-cluster", p50ms("serve.fetch")},
	{"serve.fetch_mb", "MB", "latency_p50_ms on sweep-cluster", func(ix *spanIndex) layerValue {
		var xs []float64
		for _, f := range ix.byName["serve.fetch"] {
			t := 0.0
			for _, c := range ix.children[f.ID] {
				t += c.Attrs["bytes_in"] / 1e6
			}
			xs = append(xs, t)
		}
		return p50(xs)
	}},
	{"serve.resolve_ms_p50", "ms", movesWarmP50, p50ms("serve.resolve")},
	{"serve.overhead_ms_p50", "ms", "latency_p50_ms on interactive-cold", serveOverhead},
	{"serve.journal_mb", "MB", "latency_p50_ms on the HTTP workloads", sumAttr("serve.disk", "journal_mb", 1)},
	{"serve.spill_mb", "MB", "latency_p50_ms on the HTTP workloads", sumAttr("serve.disk", "spill_mb", 1)},
	{"http.requests", "count", "jobs_per_s on the HTTP workloads", func(ix *spanIndex) layerValue {
		n := len(ix.prefixed("http"))
		return layerValue{float64(n), n}
	}},
	{"http.rejected", "count", "fail_ratio on the HTTP workloads", func(ix *spanIndex) layerValue {
		spans := ix.prefixed("http")
		r := 0
		for _, s := range spans {
			if st := s.Attrs["status"]; st == 429 || st == 503 {
				r++
			}
		}
		return layerValue{float64(r), len(spans)}
	}},
	{"http.mb_in", "MB", "latency_p50_ms on the HTTP workloads", httpMB("http", "bytes_in")},
	{"http.mb_out", "MB", "latency_p50_ms on the HTTP workloads", httpMB("http", "bytes_out")},
	{"cache.hit_ratio", "ratio", movesWarmP50, func(ix *spanIndex) layerValue {
		// Only jobs that went through a server carry cached_points; a
		// workload without a cache has none and reads 0 with n = 0.
		pts, hits, n := 0.0, 0.0, 0
		for _, j := range ix.byName["job"] {
			if c, ok := j.Attrs["cached_points"]; ok {
				pts += j.Attrs["points"]
				hits += c
				n++
			}
		}
		if pts == 0 {
			return layerValue{}
		}
		return layerValue{hits / pts, n}
	}},
	{"cache.get_ms_p50", "ms", movesWarmP50, p50ms("cache.get")},
	{"cache.put_ms_p50", "ms", movesColdP50, p50ms("cache.put")},
	{"sweep.encode_ms_p50", "ms", movesCodec, p50ms("sweep.encode")},
	{"sweep.decode_ms_p50", "ms", movesCodec, p50ms("sweep.decode")},
	{"sweep.payload_kb_p50", "KB", movesCodec, p50attr("sweep.encode", "bytes", 1e-3)},
	{"ode.settle_ms_p50", "ms", movesPipeline, p50ms("ode.settle")},
	{"shooting.find_ms_p50", "ms", movesPipeline, p50ms("shooting.find")},
	{"shooting.newton_iters", "count", movesPipeline, p50attr("shooting.find", "newton_iters", 1)},
	{"floquet.analyze_ms_p50", "ms", movesPipeline, p50ms("floquet.analyze")},
	{"floquet.adjoint_steps", "count", movesPipeline, p50attr("floquet.analyze", "adjoint_steps", 1)},
	{"core.quadrature_ms_p50", "ms", movesPipeline, p50ms("core.quadrature")},
	{"core.characterise_ms_p50", "ms", movesPipeline, p50ms("core.characterise")},
	{"osc.eval_calls", "count", movesPipeline, p50attr("osc.count", "eval_calls", 1)},
	{"osc.jacobian_calls", "count", movesPipeline, p50attr("osc.count", "jacobian_calls", 1)},
	{"osc.batch_eval_calls", "count", movesLocalPPS, p50attr("osc.count_batch", "eval_calls", 1)},
	{"shooting.find_batch_ms_p50", "ms", movesLocalPPS, p50ms("shooting.find_batch")},
	{"floquet.analyze_batch_ms_p50", "ms", movesLocalPPS, p50ms("floquet.analyze_batch")},
	{"core.characterise_batch_ms_p50", "ms", movesLocalPPS, p50ms("core.characterise_batch")},
	{"sweep.batch_speedup_native", "x", movesLocalPPS, batchSpeedup("native")},
	{"sweep.batch_speedup_fallback", "x", movesLocalPPS, batchSpeedup("fallback")},
	{"pll.compose_ms_p50", "ms", movesWarmP50, p50ms("pll.compose")},
	{"cluster.worker_requests", "count", movesClusterPPS, func(ix *spanIndex) layerValue {
		n := len(ix.prefixed("cluster.worker"))
		return layerValue{float64(n), n}
	}},
	{"cluster.worker_mb", "MB", movesClusterPPS, httpMB("cluster.worker", "bytes_in", "bytes_out")},
	{"cluster.worker_req_ms_p50", "ms", movesClusterPPS, func(ix *spanIndex) layerValue {
		var xs []float64
		for _, s := range ix.prefixed("cluster.worker") {
			if s.Attrs["sse"] == 0 {
				xs = append(xs, s.ms())
			}
		}
		return p50(xs)
	}},
	{"cluster.overhead_ms_p50", "ms", movesClusterPPS, clusterOverhead},
	{"trace.overhead_pct", "%", "none: the traced run's own cost", func(ix *spanIndex) layerValue {
		u, t := ix.attrs("phase.untraced", "latency_p50_ms"), ix.attrs("phase.traced", "latency_p50_ms")
		if len(u) == 0 || len(t) == 0 || u[0] == 0 {
			return layerValue{}
		}
		return layerValue{(t[0]/u[0] - 1) * 100, 1}
	}},
}

// serveOverhead is, per single-point characterise job, the server-side run
// time (running → terminal) minus the direct core.Characterise time of the
// same spec; a cache hit computed nothing, so its whole run is overhead.
func serveOverhead(ix *spanIndex) layerValue {
	core := map[string]float64{}
	for _, s := range ix.byName["core.characterise"] {
		core[s.Key] = s.ms()
	}
	var xs []float64
	for _, j := range ix.byName["job"] {
		if j.Attrs["points"] != 1 || j.Attrs["compose"] != 0 {
			continue
		}
		run := ix.descendant(j, "serve.run")
		if run == nil {
			continue
		}
		if j.Attrs["cached_points"] == 1 {
			xs = append(xs, run.ms())
		} else if c, ok := core[j.Key]; ok {
			xs = append(xs, run.ms()-c)
		}
	}
	return p50(xs)
}

// clusterOverhead is, per replayed sweep, the front's latency minus the
// same sweep's latency submitted straight to one fresh worker.
func clusterOverhead(ix *spanIndex) layerValue {
	front := map[string]float64{}
	for _, j := range ix.byName["job"] {
		front[j.Key] = j.ms()
	}
	var xs []float64
	for _, d := range ix.byName["cluster.direct"] {
		if f, ok := front[d.Key]; ok {
			xs = append(xs, f-d.ms())
		}
	}
	return p50(xs)
}

// batchSpeedup is the scalar replay time of a lockstep group over its
// core.CharacteriseBatch time.
func batchSpeedup(family string) func(*spanIndex) layerValue {
	return func(ix *spanIndex) layerValue {
		scalar, batched, n := 0.0, 0.0, 0
		for _, g := range ix.byName["batch.group"] {
			if g.Key != family {
				continue
			}
			for _, c := range ix.children[g.ID] {
				switch c.Name {
				case "batch.scalar_replay":
					scalar += c.ms()
				case "core.characterise_batch":
					batched += c.ms()
					n++
				}
			}
		}
		if batched == 0 {
			return layerValue{}
		}
		return layerValue{scalar / batched, n}
	}
}

func layerMetrics(spans []span) map[string]layerValue {
	ix := indexSpans(spans)
	out := map[string]layerValue{}
	for _, d := range layerDefs {
		out[d.name] = d.f(ix)
	}
	return out
}

// layerTable renders self time and counts per span name, then every
// per-layer metric with its sample count and the end-to-end metric it
// should move.
func layerTable(workload, path string, spans []span, vals map[string]layerValue) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== layer table: %s (%s) ==\n", workload, path)
	fmt.Fprintf(&b, "%-48s %7s %12s %12s %10s\n", "span", "count", "total_ms", "self_ms", "p50_ms")
	stats := selfTimes(spans)
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return stats[names[i]].selfMS > stats[names[j]].selfMS })
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(&b, "%-48s %7d %12.3f %12.3f %10.3f\n", n, st.count, st.totalMS, st.selfMS, pct(st.durs, 50))
	}
	fmt.Fprintf(&b, "-- per-layer metrics (n = samples; n = 0: the workload bypasses the layer) --\n")
	fmt.Fprintf(&b, "%-32s %14s %-6s %6s  %s\n", "metric", "value", "unit", "n", "moves")
	for _, d := range layerDefs {
		v := vals[d.name]
		fmt.Fprintf(&b, "%-32s %14.6g %-6s %6d  %s\n", d.name, v.value, d.unit, v.n, d.moves)
	}
	return b.String()
}
