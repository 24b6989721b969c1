package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/pll"
	"repro/internal/pnclient"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// interactive runs interactive-cold (every spec new: misses through the
// scalar pipeline) and interactive-warm (a fixed warm set computed during
// set-up: cache hits and compose jobs) against one in-process server with
// two job workers, driven by two closed-loop clients.
type interactive struct {
	b      *bench
	warm   bool
	node   *node
	client *pnclient.Client
	ct     *countingTransport
	next   int // next input index, guarded by mu

	// Warm set: specs, the summaries their set-up misses stored, and the
	// compose job each one anchors with its expected jitter.
	set         []serve.PointSpec
	setSum      []serve.PointSummary
	composeReq  []serve.ComposeRequest
	composeWant []float64

	mu   sync.Mutex
	jobs []jobRecord // jobs of the traced phase, for the replay
}

type jobRecord struct {
	spec serve.PointSpec
	id   string
}

const interactiveClients = 2

func setupInteractive(b *bench, dir string, warm bool) (workload, error) {
	w := &interactive{b: b, warm: warm}
	httpc, ct := newCountingClient("http")
	w.ct = ct
	n, err := startNode(dir, 2, nil, nil)
	if err != nil {
		return nil, err
	}
	w.node = n
	w.client = pnclient.New(n.ts.URL, httpc, pnclient.Retry{})
	if !warm {
		// Warm-up: one job down the miss path before timing starts, on a
		// point outside the measured stream.
		if _, err := w.characterise(context.Background(), serve.PointSpec{Name: "warmup", Model: "hopf"}, "warmup"); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		return w, nil
	}
	if err := w.computeWarmSet(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// characterise submits one point and waits for its terminal status.
func (w *interactive) characterise(ctx context.Context, spec serve.PointSpec, idem string) (serve.JobStatus, error) {
	return submitAndWait(ctx, w.client, nil, nil, func(ctx context.Context) (serve.JobStatus, error) {
		return w.client.Characterise(ctx, serve.CharacteriseRequest{PointSpec: spec}, idem)
	})
}

// computeWarmSet characterises the warm set with two clients, checks each
// miss, and prepares one compose job per warm point with its expected
// jitter from a direct pll.Compose of the same legs.
func (w *interactive) computeWarmSet() error {
	w.set = warmSet(w.b.seed)
	w.setSum = make([]serve.PointSummary, len(w.set))
	errs := make([]error, len(w.set))
	var wg sync.WaitGroup
	for c := 0; c < interactiveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(w.set); i += interactiveClients {
				st, err := w.characterise(context.Background(), w.set[i], fmt.Sprintf("warmset-%d", i))
				if err == nil {
					err = checkPoint(w.set[i], st)
				}
				if err == nil {
					w.setSum[i] = st.Results[0]
				}
				errs[i] = err
			}
		}(c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("warm set %s: %w", w.set[i].Name, err)
		}
	}
	for i := range w.set {
		req := composeRequest(w.set[i], w.setSum[i])
		want, err := pll.Compose(composeConfig(req, w.setSum[i]))
		if err != nil {
			return fmt.Errorf("compose for %s: %w", w.set[i].Name, err)
		}
		w.composeReq = append(w.composeReq, req)
		w.composeWant = append(w.composeWant, want.JitterSec)
	}
	return nil
}

// composeRequest is a one-stage PLL whose VCO is the warm point (a spec leg,
// resolved through the server's cache) locked to a closed-form Lorentzian
// reference; the grid and loop scale with the VCO's carrier.
func composeRequest(spec serve.PointSpec, sum serve.PointSummary) serve.ComposeRequest {
	f0 := sum.F0
	sp := spec
	return serve.ComposeRequest{
		Stages: []serve.ComposeStage{{
			Ref:             &serve.ComposeLeg{Leg: pll.Leg{Name: "ref", F0Hz: f0 / 8, C: sum.C / 4}},
			VCO:             serve.ComposeLeg{Spec: &sp},
			LoopBandwidthHz: f0 * 1e-3,
		}},
		Grid:         pll.Grid{StartHz: f0 * 1e-6, StopHz: f0 * 1e-1},
		JitterBandHz: [2]float64{f0 * 1e-5, f0 * 1e-2},
	}
}

// composeConfig is the pll.Config the server builds for req once its VCO leg
// resolved to sum.
func composeConfig(req serve.ComposeRequest, sum serve.PointSummary) *pll.Config {
	st := req.Stages[0]
	ref := st.Ref.Leg
	return &pll.Config{
		Stages: []pll.Stage{{
			Ref:             &ref,
			VCO:             pll.Leg{Name: st.VCO.Spec.Name, F0Hz: sum.F0, C: sum.C},
			LoopBandwidthHz: st.LoopBandwidthHz,
		}},
		Grid:         req.Grid,
		JitterBandHz: req.JitterBandHz,
	}
}

func (w *interactive) run(tr *tracer, d time.Duration) *outcome {
	w.ct.tr.Store(tr)
	defer w.ct.tr.Store(nil)
	return closedLoop(interactiveClients, d, func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		i := w.next
		w.next++
		return i
	}, func(i int, out *outcome) { w.job(tr, i, out) })
}

// job runs input i end to end, from submission to the terminal status.
func (w *interactive) job(tr *tracer, i int, out *outcome) {
	var spec serve.PointSpec
	compose, setIdx := false, -1
	if w.warm {
		compose, setIdx = warmRequest(w.b.seed, i, len(w.set))
		spec = w.set[setIdx]
	} else {
		spec = coldSpec(w.b.seed, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	mark := &jobMark{}
	ctx = withJobMark(ctx, mark)
	idem := fmt.Sprintf("bench-%d-%d", w.b.seed, i)

	root := tr.start(nil, "job", fmt.Sprintf("job-%d", i))
	root.key(spec.Name)
	if compose {
		root.set("compose", 1)
	}
	start := time.Now()
	st, err := submitAndWait(ctx, w.client, tr, root, func(ctx context.Context) (serve.JobStatus, error) {
		if compose {
			return w.client.Compose(ctx, w.composeReq[setIdx], idem)
		}
		return w.client.Characterise(ctx, serve.CharacteriseRequest{PointSpec: spec}, idem)
	})
	lat := msSince(start)
	root.set("points", float64(st.Points))
	root.set("cached_points", float64(st.CachedPoints))
	root.end()

	if err == nil {
		err = w.check(spec, setIdx, compose, st)
	}
	if err == nil && (mark.rejected.Load() > 0 || mark.errors.Load() > 0) {
		err = fmt.Errorf("%d refused and %d failed requests on the way", mark.rejected.Load(), mark.errors.Load())
	}
	out.add(lat, 1, 1, err, fmt.Sprintf("job %d", i))
	if tr != nil && err == nil {
		w.mu.Lock()
		w.jobs = append(w.jobs, jobRecord{spec: spec, id: st.ID})
		w.mu.Unlock()
	}
}

// check verifies a terminal job: done with one successful point, closed-form
// c on hopf, the Fig. 2 c on bandpass, every cold job a cache miss, and on the
// warm set every characterise a cache hit with c bit for bit the miss that
// stored it and every compose jitter equal to the direct pll.Compose of the
// same legs.
func (w *interactive) check(spec serve.PointSpec, setIdx int, compose bool, st serve.JobStatus) error {
	if err := checkPoint(spec, st); err != nil {
		return err
	}
	if !w.warm {
		if st.CachedPoints > 0 {
			return fmt.Errorf("%s: cold job %s served %d points from the cache", spec.Name, st.ID, st.CachedPoints)
		}
		return nil
	}
	if !compose && st.CachedPoints != st.Points {
		return fmt.Errorf("%s: warm job %s served %d of %d points from the cache", spec.Name, st.ID, st.CachedPoints, st.Points)
	}
	want := w.setSum[setIdx]
	if got := st.Results[0].C; math.Float64bits(got) != math.Float64bits(want.C) {
		return fmt.Errorf("%s: c %v differs from the miss that stored it (%v)", spec.Name, got, want.C)
	}
	if compose {
		if st.Compose == nil {
			return fmt.Errorf("%s: compose job without a composition", spec.Name)
		}
		if math.Float64bits(st.Compose.JitterSec) != math.Float64bits(w.composeWant[setIdx]) {
			return fmt.Errorf("%s: compose jitter %v, direct pll.Compose %v", spec.Name, st.Compose.JitterSec, w.composeWant[setIdx])
		}
	}
	return nil
}

// checkPoint verifies a one-point job's status and the point's closed forms.
func checkPoint(spec serve.PointSpec, st serve.JobStatus) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("%s: job %s ended %s: %v", spec.Name, st.ID, st.State, st.Error)
	}
	if len(st.Results) != 1 || !st.Results[0].OK {
		return fmt.Errorf("%s: job %s has no successful point: %+v", spec.Name, st.ID, st.Results)
	}
	return checkC(spec, st.Results[0].C)
}

// checkC holds c to the closed forms the repository tests: σ²/ω² for hopf at
// the core closed-form test's 1e-6 relative tolerance, and the paper's Fig. 2
// value 7.5602e-08 s²·Hz for the bandpass to the digits the docs print.
func checkC(spec serve.PointSpec, c float64) error {
	switch spec.Model {
	case "hopf": // generated with noise on both equations
		sigma, omega := spec.Params["sigma"], spec.Params["omega"]
		if wc := sigma * sigma / (omega * omega); math.Abs(c-wc) > 1e-6*wc {
			return fmt.Errorf("%s: c = %.12e, closed form %.12e", spec.Name, c, wc)
		}
	case "bandpass":
		if got := fmt.Sprintf("%.4e", c); got != "7.5602e-08" {
			return fmt.Errorf("%s: c = %s, paper Fig. 2 gives 7.5602e-08", spec.Name, got)
		}
	}
	if !(c > 0) || math.IsInf(c, 0) {
		return fmt.Errorf("%s: c = %v", spec.Name, c)
	}
	return nil
}

// replay: the pipeline layers on a family-stratified sample of the traced
// phase's specs, the codec and cache on those jobs' own loss-free results
// (fetched back as JSONL), pll.Compose on the compose jobs' legs, and the
// server's disk footprint.
func (w *interactive) replay(tr *tracer) []string {
	w.mu.Lock()
	jobs := append([]jobRecord(nil), w.jobs...)
	w.mu.Unlock()
	specs := make([]serve.PointSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = j.spec
	}
	idx := sampleSpecs(specs, replaySample)
	sample := make([]serve.PointSpec, len(idx))
	for k, i := range idx {
		sample[k] = specs[i]
	}
	fails := replayPipeline(tr, sample)

	var results []sweep.PointResult
	var keys []string
	for _, i := range idx {
		fs := tr.start(nil, "replay.fetch", jobs[i].id)
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		err := w.client.StreamResults(ctx, jobs[i].id, func(r sweep.PointResult) { results = append(results, r) })
		cancel()
		fs.end()
		if err != nil {
			fails = append(fails, fmt.Sprintf("fetch %s: %v", jobs[i].id, err))
			continue
		}
		keys = append(keys, jobs[i].spec.RoutingKey())
	}
	if len(keys) == len(results) {
		fails = append(fails, replayCodec(tr, w.b.dir, results, keys)...)
	} else {
		fails = append(fails, fmt.Sprintf("fetched %d results for %d jobs", len(results), len(keys)))
	}

	if w.warm {
		var cfgs []*pll.Config
		for i := range w.set {
			cfgs = append(cfgs, composeConfig(w.composeReq[i], w.setSum[i]))
		}
		fails = append(fails, replayCompose(tr, cfgs)...)
	}
	recordDisk(tr, w.node)
	return fails
}

// submitAndWait submits a job (admission: POST until the 202), then follows
// its SSE stream to a terminal state and fetches the final status (pnclient
// Wait). The serve.queue and serve.run spans are bounded by the state events
// as the client receives them, recorded under the SSE request that carried
// them; a state reached before the stream connected is stamped at connection
// time.
func submitAndWait(ctx context.Context, c *pnclient.Client, tr *tracer, root *live, submit func(context.Context) (serve.JobStatus, error)) (serve.JobStatus, error) {
	adm := tr.start(root, "serve.admit", "")
	st, err := submit(withSpan(ctx, adm))
	adm.end()
	if err != nil {
		return st, err
	}
	admitted := time.Now()
	var running, terminal time.Time
	wait := tr.start(root, "serve.wait", "")
	slot := &sseSlot{}
	ctx = context.WithValue(withSpan(ctx, wait), sseSlotKey{}, slot)
	st, err = c.Wait(ctx, st.ID, false, func(ev serve.Event) {
		if ev.Type != "state" {
			return
		}
		switch ev.State {
		case serve.StateRunning:
			running = time.Now()
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
			terminal = time.Now()
		}
	})
	if !running.IsZero() && !terminal.IsZero() {
		parent := wait
		if slot.sp != nil {
			parent = slot.sp
		}
		tr.record(parent, "serve.queue", admitted, running, nil)
		tr.record(parent, "serve.run", running, terminal, nil)
	}
	wait.end()
	return st, err
}

func recordDisk(tr *tracer, nodes ...*node) {
	var journal, spill float64
	for _, n := range nodes {
		j, s := n.diskMB()
		journal += j
		spill += s
	}
	now := time.Now()
	tr.record(nil, "serve.disk", now, now, map[string]float64{"journal_mb": journal, "spill_mb": spill})
}

func (w *interactive) close() { w.node.close() }
