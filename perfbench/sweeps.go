package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/pnclient"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// sweepLocal is pnsweep's in-process batched path: back-to-back sweep.Run
// calls with eight lockstep lanes and two workers, no cache, no HTTP.
type sweepLocal struct {
	b    *bench
	next int

	// The traced phase's last sweep, for the replay.
	last     []serve.PointSpec
	lastRes  []sweep.PointResult
	lastRing []int
}

func localConfig() *sweep.Config { return &sweep.Config{Workers: 2, BatchLanes: 8} }

func setupLocal(b *bench, dir string) (workload, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Warm-up: one lockstep group before timing starts, from its own stream.
	specs := make([]serve.PointSpec, 8)
	for j := range specs {
		specs[j] = vdpSpec(rngFor(b.seed, "local-warmup", j), fmt.Sprintf("warmup-%d", j))
	}
	points, err := resolveAll(specs)
	if err != nil {
		return nil, err
	}
	for _, r := range sweep.Run(points, localConfig()) {
		if !r.OK() {
			return nil, fmt.Errorf("warm-up sweep: %s: %v", r.Name, r.Err)
		}
	}
	return &sweepLocal{b: b}, nil
}

func resolveAll(specs []serve.PointSpec) ([]sweep.Point, error) {
	points := make([]sweep.Point, len(specs))
	for i, sp := range specs {
		p, err := sp.Resolve(nil)
		if err != nil {
			return nil, fmt.Errorf("resolve %s: %w", sp.Name, err)
		}
		points[i] = p
	}
	return points, nil
}

func (w *sweepLocal) run(tr *tracer, d time.Duration) *outcome {
	return closedLoop(1, d, func() int { w.next++; return w.next - 1 }, func(k int, out *outcome) {
		specs, ring := localSweep(w.b.seed, k)
		root := tr.start(nil, "job", fmt.Sprintf("sweep-%d", k))
		rs := tr.start(root, "sweep.resolve", "")
		points, err := resolveAll(specs)
		rs.end()
		if err != nil {
			root.end()
			out.add(0, len(specs), len(specs), err, fmt.Sprintf("sweep %d", k))
			return
		}
		rn := tr.start(root, "sweep.run", "")
		start := time.Now()
		results := sweep.Run(points, localConfig())
		lat := msSince(start)
		rn.end()
		root.set("points", float64(len(specs)))
		root.end()
		bad, err := checkSweep(specs, results)
		if err == nil {
			err = checkFig4b(specs, results, ring)
			if err != nil {
				bad = max(bad, 1)
			}
		}
		out.add(lat, len(specs), bad, err, fmt.Sprintf("sweep %d", k))
		if tr != nil {
			w.last, w.lastRes, w.lastRing = specs, results, ring
		}
	})
}

// checkSweep checks every point of a finished sweep: successful, at its
// input index, and on its closed form. It returns how many points failed.
func checkSweep(specs []serve.PointSpec, results []sweep.PointResult) (int, error) {
	if len(results) != len(specs) {
		return len(specs), fmt.Errorf("%d results for %d points", len(results), len(specs))
	}
	bad := 0
	var first error
	for i, r := range results {
		var err error
		switch {
		case r.Index != i:
			err = fmt.Errorf("result %d carries index %d", i, r.Index)
		case !r.OK():
			err = fmt.Errorf("%s failed: %v", specs[i].Name, r.Err)
		default:
			err = checkC(specs[i], r.Result.C)
		}
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

// checkFig4b holds the ring line to the paper's Fig. 4(b): the figure of
// merit (2πf0)²·c strictly decreases as I_EE grows.
func checkFig4b(specs []serve.PointSpec, results []sweep.PointResult, ring []int) error {
	prev := math.Inf(1)
	for _, i := range ring {
		r := results[i].Result
		fom := math.Pow(2*math.Pi*r.F0(), 2) * r.C
		if !(fom < prev) {
			return fmt.Errorf("Fig. 4(b): (2πf0)²c = %v at %s does not decrease from %v", fom, specs[i].Name, prev)
		}
		prev = fom
	}
	return nil
}

// replay: the pipeline layers on vdp and ring points of the last traced
// sweep, one native (vdp) and one fallback (ring) lockstep group against
// their scalar replays, and the codec and cache on the sweep's own results.
func (w *sweepLocal) replay(tr *tracer) []string {
	if len(w.last) == 0 {
		return []string{"traced phase finished no sweep"}
	}
	idx := sampleSpecs(w.last, replaySample)
	sample := make([]serve.PointSpec, len(idx))
	results := make([]sweep.PointResult, len(idx))
	for k, i := range idx {
		sample[k], results[k] = w.last[i], w.lastRes[i]
	}
	fails := replayPipeline(tr, sample)
	// The sweep's first native group is its first eight vdp points by input
	// index, as the engine plans it.
	var vdp, ring []serve.PointSpec
	var vdpRes, ringRes []sweep.PointResult
	for i, sp := range w.last {
		if sp.Model == "vanderpol" && len(vdp) < 8 {
			vdp, vdpRes = append(vdp, sp), append(vdpRes, w.lastRes[i])
		}
	}
	for _, i := range w.lastRing {
		ring, ringRes = append(ring, w.last[i]), append(ringRes, w.lastRes[i])
	}
	fails = append(fails, replayBatch(tr, "native", vdp, vdpRes)...)
	fails = append(fails, replayBatch(tr, "fallback", ring, ringRes)...)
	fails = append(fails, replayCodec(tr, w.b.dir, results, resolveKeys(sample))...)
	return fails
}

func (w *sweepLocal) close() {}

// sweepCluster is a coordinator front (a serve.Server whose Runner is a
// cluster.Coordinator) over two in-process worker servers with one job
// worker, cache and journal each; one client submits back-to-back sweeps and
// downloads each one's results as JSONL.
type sweepCluster struct {
	b       *bench
	workers []*node
	front   *node
	client  *pnclient.Client
	ct, cct *countingTransport
	next    int

	mu   sync.Mutex
	jobs []clusterJob // the traced phase's sweeps, for the replay
	res  []sweep.PointResult
}

type clusterJob struct {
	k     int
	specs []serve.PointSpec
}

func setupCluster(b *bench, dir string) (workload, error) {
	w := &sweepCluster{b: b}
	var urls []string
	for i := 0; i < 2; i++ {
		n, err := startNode(filepath.Join(dir, fmt.Sprintf("worker-%d", i)), 1, nil, nil)
		if err != nil {
			w.close()
			return nil, err
		}
		w.workers = append(w.workers, n)
		urls = append(urls, n.ts.URL)
	}
	coordHTTP, cct := newCountingClient("cluster.worker")
	w.cct = cct
	front, err := startNode(filepath.Join(dir, "front"), 2, urls, coordHTTP)
	if err != nil {
		w.close()
		return nil, err
	}
	w.front = front
	httpc, ct := newCountingClient("http")
	w.ct = ct
	w.client = pnclient.New(front.ts.URL, httpc, pnclient.Retry{})
	// Warm-up: a one-point sweep through the fleet before timing starts. One
	// point is one lease on one worker whatever the ring's layout (the
	// workers' ports, and so their ring positions, change every set-up).
	warm := []serve.PointSpec{hopfSpec(rngFor(b.seed, "cluster-warmup", 0), "warmup-0")}
	if _, _, err := sweepAndFetch(context.Background(), w.client, nil, nil, warm, "warmup"); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	return w, nil
}

// sweepAndFetch submits one sweep, waits for its terminal status and
// downloads its loss-free results as JSONL: the caller then holds the full
// result. It checks the download against the status.
func sweepAndFetch(ctx context.Context, c *pnclient.Client, tr *tracer, root *live, specs []serve.PointSpec, idem string) (serve.JobStatus, []sweep.PointResult, error) {
	st, err := submitAndWait(ctx, c, tr, root, func(ctx context.Context) (serve.JobStatus, error) {
		return c.Sweep(ctx, serve.SweepRequest{Points: specs}, idem)
	})
	if err != nil {
		return st, nil, err
	}
	fetch := tr.start(root, "serve.fetch", "")
	var results []sweep.PointResult
	err = c.StreamResults(withSpan(ctx, fetch), st.ID, func(r sweep.PointResult) { results = append(results, r) })
	fetch.end()
	if err != nil {
		return st, results, err
	}
	return st, results, checkDownload(st, specs, results)
}

// checkDownload: the sweep is done, the JSONL has exactly one line per
// point with indices 0..N-1, and each line's c equals the status summary.
func checkDownload(st serve.JobStatus, specs []serve.PointSpec, results []sweep.PointResult) error {
	if st.State != serve.StateDone {
		return fmt.Errorf("job %s ended %s: %v", st.ID, st.State, st.Error)
	}
	if len(results) != len(specs) || len(st.Results) != len(specs) {
		return fmt.Errorf("job %s: %d JSONL lines and %d summaries for %d points", st.ID, len(results), len(st.Results), len(specs))
	}
	for i, r := range results {
		if r.Index != i || st.Results[i].Index != i {
			return fmt.Errorf("job %s: line %d carries index %d (summary %d)", st.ID, i, r.Index, st.Results[i].Index)
		}
		if r.OK() && math.Float64bits(r.Result.C) != math.Float64bits(st.Results[i].C) {
			return fmt.Errorf("job %s: point %d c %v in JSONL, %v in status", st.ID, i, r.Result.C, st.Results[i].C)
		}
	}
	return nil
}

func (w *sweepCluster) run(tr *tracer, d time.Duration) *outcome {
	w.ct.tr.Store(tr)
	w.cct.tr.Store(tr)
	defer w.ct.tr.Store(nil)
	defer w.cct.tr.Store(nil)
	return closedLoop(1, d, func() int { w.next++; return w.next - 1 }, func(k int, out *outcome) {
		specs := clusterSweep(w.b.seed, k)
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		defer cancel()
		mark := &jobMark{}
		ctx = withJobMark(ctx, mark)
		name := fmt.Sprintf("sweep-%d", k)
		root := tr.start(nil, "job", name)
		root.key(name)
		start := time.Now()
		st, results, err := sweepAndFetch(ctx, w.client, tr, root, specs, fmt.Sprintf("bench-%d-%d", w.b.seed, k))
		lat := msSince(start)
		root.set("points", float64(st.Points))
		root.set("cached_points", float64(st.CachedPoints))
		root.end()
		bad := len(specs)
		if err == nil {
			bad, err = checkSweep(specs, results)
		}
		if err == nil && (mark.rejected.Load() > 0 || mark.errors.Load() > 0) {
			bad, err = len(specs), fmt.Errorf("%d refused and %d failed requests on the way", mark.rejected.Load(), mark.errors.Load())
		}
		out.add(lat, len(specs), bad, err, name)
		if tr != nil && err == nil {
			w.mu.Lock()
			w.jobs = append(w.jobs, clusterJob{k: k, specs: specs})
			w.res = results
			w.mu.Unlock()
		}
	})
}

// replay: the pipeline layers and the codec/cache on points of the last
// traced sweep, then the same sweep submitted straight to one fresh worker
// (cluster.direct, joined with the front's job span for
// cluster.overhead_ms_p50), and the fleet's disk footprint.
func (w *sweepCluster) replay(tr *tracer) []string {
	w.mu.Lock()
	jobs, res := w.jobs, w.res
	w.mu.Unlock()
	if len(jobs) == 0 {
		return []string{"traced phase finished no sweep"}
	}
	last := jobs[len(jobs)-1].specs
	idx := sampleSpecs(last, replaySample)
	sample := make([]serve.PointSpec, len(idx))
	results := make([]sweep.PointResult, len(idx))
	for k, i := range idx {
		sample[k], results[k] = last[i], res[i]
	}
	fails := replayPipeline(tr, sample)
	fails = append(fails, replayCodec(tr, w.b.dir, results, resolveKeys(sample))...)

	direct, err := startNode(filepath.Join(w.b.dir, "direct"), 1, nil, nil)
	if err != nil {
		return append(fails, fmt.Sprintf("direct worker: %v", err))
	}
	defer direct.close()
	httpc, _ := newCountingClient("direct")
	c := pnclient.New(direct.ts.URL, httpc, pnclient.Retry{})
	for _, j := range jobs[:min(len(jobs), 2)] {
		name := fmt.Sprintf("sweep-%d", j.k)
		ds := tr.start(nil, "cluster.direct", name)
		ds.key(name)
		ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
		_, _, err := sweepAndFetch(ctx, c, nil, nil, j.specs, "direct-"+name)
		cancel()
		ds.end()
		if err != nil {
			fails = append(fails, fmt.Sprintf("direct %s: %v", name, err))
		}
	}
	recordDisk(tr, append([]*node{w.front}, w.workers...)...)
	return fails
}

func (w *sweepCluster) close() {
	w.front.close()
	for _, n := range w.workers {
		n.close()
	}
}
