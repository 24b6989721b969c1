package main

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/floquet"
	"repro/internal/ode"
	"repro/internal/osc"
	"repro/internal/pll"
	"repro/internal/serve"
	"repro/internal/shooting"
	"repro/internal/sweep"
)

// Direct per-layer calls of the traced run: each layer's public functions
// called on the workload's own seeded inputs and results, one span per call.

// replayPipeline replays the Section-9 pipeline stage by stage on each spec:
// PointSpec.Resolve, the shooting settle as a direct ode.DOPRI5, shooting.Find,
// floquet.Analyze and core.FromDecomposition, then one whole core.Characterise
// (span key = spec name, joined with job spans for serve.overhead_ms_p50) and
// a counting pass for model evaluations. It returns the failures it saw.
func replayPipeline(tr *tracer, specs []serve.PointSpec) []string {
	var fails []string
	for _, sp := range specs {
		if err := replayPoint(tr, sp); err != nil {
			fails = append(fails, fmt.Sprintf("replay %s: %v", sp.Name, err))
		}
	}
	return fails
}

func replayPoint(tr *tracer, spec serve.PointSpec) error {
	root := tr.start(nil, "replay.point", spec.Name)
	root.key(spec.Name)
	defer root.end()

	rs := tr.start(root, "serve.resolve", "")
	p, err := spec.Resolve(nil)
	rs.end()
	if err != nil {
		return err
	}
	var so *shooting.Options
	var fo *floquet.Options
	qp := 0
	if p.Opts != nil {
		so, fo, qp = p.Opts.Shooting, p.Opts.Floquet, p.Opts.QuadPoints
	}
	eff := so.Effective()
	f := func(_ float64, x, dst []float64) { p.System.Eval(x, dst) }
	st := tr.start(root, "ode.settle", "")
	_, err = ode.DOPRI5(f, 0, eff.Transient*p.TGuess, p.X0, &ode.Options{RTol: 1e-9, ATol: 1e-12})
	st.end()
	if err != nil {
		return fmt.Errorf("settle: %w", err)
	}

	var sTrace shooting.Trace
	sopt := eff
	sopt.Trace = &sTrace
	fs := tr.start(root, "shooting.find", "")
	pss, err := shooting.Find(p.System, p.X0, p.TGuess, &sopt)
	fs.set("newton_iters", float64(sTrace.Iters))
	fs.end()
	if err != nil {
		return err
	}
	var fTrace floquet.Trace
	fopt := floquet.Options{}
	if fo != nil {
		fopt = *fo
	}
	fopt.Trace = &fTrace
	fa := tr.start(root, "floquet.analyze", "")
	dec, err := floquet.Analyze(p.System, pss, &fopt)
	fa.set("adjoint_steps", float64(fTrace.Steps))
	fa.end()
	if err != nil {
		return err
	}
	qs := tr.start(root, "core.quadrature", "")
	staged, err := core.FromDecomposition(p.System, pss, dec, qp)
	qs.end()
	if err != nil {
		return err
	}

	cs := tr.start(root, "core.characterise", "")
	cs.key(spec.Name)
	whole, err := core.Characterise(p.System, p.X0, p.TGuess, p.Opts)
	cs.end()
	if err != nil {
		return err
	}
	if math.Float64bits(whole.C) != math.Float64bits(staged.C) {
		return fmt.Errorf("staged c %v differs from core.Characterise c %v", staged.C, whole.C)
	}

	cnt := &countingSystem{System: p.System}
	cc := tr.start(root, "osc.count", "")
	_, err = core.Characterise(cnt, p.X0, p.TGuess, p.Opts)
	cc.set("eval_calls", float64(cnt.evals.Load()))
	cc.set("jacobian_calls", float64(cnt.jacs.Load()))
	cc.end()
	return err
}

// replayCodec times sweep.PointResult's JSON codec on results the workload
// produced, and the cache layer on the same keys and payloads, through a
// store configured like the server's (disk tier plus default memory bound).
func replayCodec(tr *tracer, dir string, results []sweep.PointResult, keys []string) []string {
	var fails []string
	store, err := cache.New(cache.Options{Dir: filepath.Join(dir, "replay-cache")})
	if err != nil {
		return []string{fmt.Sprintf("replay cache: %v", err)}
	}
	for i := range results {
		r := &results[i]
		es := tr.start(nil, "sweep.encode", r.Name)
		data, err := json.Marshal(r)
		es.set("bytes", float64(len(data)))
		es.end()
		if err != nil {
			fails = append(fails, fmt.Sprintf("encode %s: %v", r.Name, err))
			continue
		}
		ds := tr.start(nil, "sweep.decode", r.Name)
		var back sweep.PointResult
		err = json.Unmarshal(data, &back)
		ds.end()
		if err != nil {
			fails = append(fails, fmt.Sprintf("decode %s: %v", r.Name, err))
			continue
		}
		if !r.OK() || !back.OK() || math.Float64bits(back.Result.C) != math.Float64bits(r.Result.C) {
			fails = append(fails, fmt.Sprintf("codec round trip of %s lost its result", r.Name))
			continue
		}
		if i >= len(keys) || keys[i] == "" {
			continue
		}
		payload, err := json.Marshal(r.Result)
		if err != nil {
			fails = append(fails, fmt.Sprintf("encode result %s: %v", r.Name, err))
			continue
		}
		ps := tr.start(nil, "cache.put", r.Name)
		err = store.Put(keys[i], payload)
		ps.end()
		if err != nil {
			fails = append(fails, fmt.Sprintf("cache put %s: %v", r.Name, err))
			continue
		}
		gs := tr.start(nil, "cache.get", r.Name)
		got, hit := store.Get(keys[i])
		gs.end()
		if !hit || len(got) != len(payload) {
			fails = append(fails, fmt.Sprintf("cache get %s: hit=%v", r.Name, hit))
		}
	}
	return fails
}

// resolveKeys returns each spec's content-addressed cache key.
func resolveKeys(specs []serve.PointSpec) []string {
	keys := make([]string, len(specs))
	for i, sp := range specs {
		keys[i] = sp.RoutingKey()
	}
	return keys
}

// replayBatch replays one lockstep group of same-family points: the batched
// stages (shooting.FindBatch, floquet.AnalyzeBatch), one whole
// core.CharacteriseBatch, the scalar core.Characterise of every lane, and a
// counting pass through the batch evaluator. Every lane must match its scalar
// replay and the workload's own result (swept) bit for bit.
func replayBatch(tr *tracer, family string, specs []serve.PointSpec, swept []sweep.PointResult) []string {
	points := make([]sweep.Point, len(specs))
	systems := make([]dynsys.System, len(specs))
	for i, sp := range specs {
		p, err := sp.Resolve(nil)
		if err != nil {
			return []string{fmt.Sprintf("batch resolve %s: %v", sp.Name, err)}
		}
		points[i], systems[i] = p, p.System
	}
	be, err := osc.BatchSystems(systems)
	if err != nil {
		return []string{fmt.Sprintf("batch %s: %v", family, err)}
	}
	opts := func(p sweep.Point) *core.Options {
		o := core.Options{}
		if p.Opts != nil {
			o = *p.Opts
		}
		return &o
	}
	req := "batch-" + family
	group := tr.start(nil, "batch.group", req)
	group.key(family)
	lanes := make([]shooting.BatchLane, len(points))
	for i, p := range points {
		lanes[i] = shooting.BatchLane{Sys: p.System, X0: p.X0, TGuess: p.TGuess, Opts: opts(p).Shooting}
	}
	fs := tr.start(group, "shooting.find_batch", "")
	pss, laneErrs, err := shooting.FindBatch(be, lanes, nil)
	fs.end()
	if err == nil {
		items := make([]floquet.BatchItem, len(points))
		for i, p := range points {
			if laneErrs[i] == nil {
				items[i] = floquet.BatchItem{Sys: p.System, PSS: pss[i], Opts: opts(p).Floquet}
			}
		}
		fa := tr.start(group, "floquet.analyze_batch", "")
		_, _, err = floquet.AnalyzeBatch(be, items, nil)
		fa.end()
	}
	if err != nil {
		group.end()
		return []string{fmt.Sprintf("batch %s stages: %v", family, err)}
	}

	bpoints := make([]core.BatchPoint, len(points))
	for i, p := range points {
		bpoints[i] = core.BatchPoint{Sys: p.System, X0: p.X0, TGuess: p.TGuess, Opts: opts(p)}
	}
	cb := tr.start(group, "core.characterise_batch", "")
	batched, laneErrs, err := core.CharacteriseBatch(be, bpoints, nil)
	cb.end()
	if err != nil {
		group.end()
		return []string{fmt.Sprintf("batch %s: %v", family, err)}
	}
	sc := tr.start(group, "batch.scalar_replay", "")
	var fails []string
	for i, p := range points {
		res, err := core.Characterise(p.System, p.X0, p.TGuess, opts(p))
		switch {
		case err != nil || laneErrs[i] != nil:
			fails = append(fails, fmt.Sprintf("batch lane %s: scalar err %v, batched err %v", specs[i].Name, err, laneErrs[i]))
		case math.Float64bits(res.C) != math.Float64bits(batched[i].C) || math.Float64bits(res.T()) != math.Float64bits(batched[i].T()):
			fails = append(fails, fmt.Sprintf("batch lane %s: batched c=%v T=%v, scalar c=%v T=%v",
				specs[i].Name, batched[i].C, batched[i].T(), res.C, res.T()))
		case !swept[i].OK() || math.Float64bits(swept[i].Result.C) != math.Float64bits(res.C):
			fails = append(fails, fmt.Sprintf("batch lane %s: the sweep returned %v, the replay c=%v", specs[i].Name, swept[i].Result, res.C))
		}
	}
	sc.end()
	group.end()

	cnt := &countingBatch{BatchEvaluator: be}
	cc := tr.start(nil, "osc.count_batch", req)
	_, _, err = core.CharacteriseBatch(cnt, bpoints, nil)
	cc.set("eval_calls", float64(cnt.evals.Load()))
	cc.set("jacobian_calls", float64(cnt.jacs.Load()))
	cc.end()
	if err != nil {
		fails = append(fails, fmt.Sprintf("batch %s counting pass: %v", family, err))
	}
	return fails
}

// replayCompose times pll.Compose directly on compose configurations.
func replayCompose(tr *tracer, cfgs []*pll.Config) []string {
	var fails []string
	for _, cfg := range cfgs {
		s := tr.start(nil, "pll.compose", "")
		_, err := pll.Compose(cfg)
		s.end()
		if err != nil {
			fails = append(fails, fmt.Sprintf("pll.Compose: %v", err))
		}
	}
	return fails
}

// sampleSpecs picks up to n specs, round-robin over model families in first-
// seen order, so every family the workload ran is replayed.
func sampleSpecs(specs []serve.PointSpec, n int) []int {
	byFamily := map[string][]int{}
	var order []string
	seen := map[string]bool{}
	for i, sp := range specs {
		if seen[sp.Name] {
			continue
		}
		seen[sp.Name] = true
		if _, ok := byFamily[sp.Model]; !ok {
			order = append(order, sp.Model)
		}
		byFamily[sp.Model] = append(byFamily[sp.Model], i)
	}
	var out []int
	for round := 0; len(out) < n; round++ {
		added := false
		for _, f := range order {
			if round < len(byFamily[f]) && len(out) < n {
				out = append(out, byFamily[f][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}
