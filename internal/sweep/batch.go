package sweep

import (
	"encoding/json"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/faultinject"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/shooting"
)

// batchKey is the compatibility class of a point for lockstep batching: the
// state dimension plus every base-rung solver knob that the batch kernels
// must run in lockstep. Points with equal keys produce structurally
// identical integration schedules, which is exactly what the SoA kernels
// require.
type batchKey struct {
	dim  int
	so   shooting.Options
	fo   floquet.Options
	quad int
}

// batchKeyOf classifies one point, reporting ok=false when the point cannot
// join a batch (no system, or a model so hostile that merely asking its
// dimension panics — those keep the fully isolated one-lane path).
func batchKeyOf(p Point, c *Config) (key batchKey, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if p.System == nil {
		return batchKey{}, false
	}
	opts := applyRung(p.Opts, c.Ladder[0])
	se := opts.Shooting.Effective()
	se.Trace, se.Budget = nil, nil
	fe := opts.Floquet.Effective()
	fe.Trace, fe.Budget = nil, nil
	return batchKey{dim: p.System.Dim(), so: se, fo: fe, quad: opts.QuadPoints}, true
}

// planUnits partitions the points into worker units: singleton units for the
// one-lane path, and groups of up to Config.BatchLanes compatible points for
// the lockstep path. Units are ordered by their first member's input index,
// so scheduling stays deterministic.
func planUnits(points []Point, c *Config) [][]int {
	if c.BatchLanes <= 1 {
		units := make([][]int, len(points))
		for k := range points {
			units[k] = []int{k}
		}
		return units
	}
	groups := make(map[batchKey][]int)
	var units [][]int
	for k, p := range points {
		if key, ok := batchKeyOf(p, c); ok {
			groups[key] = append(groups[key], k)
		} else {
			units = append(units, []int{k})
		}
	}
	for _, idxs := range groups {
		for len(idxs) > c.BatchLanes {
			units = append(units, idxs[:c.BatchLanes])
			idxs = idxs[c.BatchLanes:]
		}
		units = append(units, idxs)
	}
	sort.Slice(units, func(i, j int) bool { return units[i][0] < units[j][0] })
	return units
}

// runBatchUnit resolves one lockstep group: cache pre-check per point, one
// base-rung attempt for the remaining lanes through the attempt supervisor,
// then per-lane continuation — success commits to the cache and a retryable
// failure climbs that point's own ladder from the next rung. When the group
// cannot run as a batch (injected fault, panic inside the lockstep kernels),
// every lane falls back to the fully isolated one-lane path.
func runBatchUnit(idxs []int, points []Point, c *Config, out []PointResult, attempt func(int, string, Attempt), finalize func(int), rsp *obs.Span) {
	m := sweepMetrics.Get()
	start := time.Now()
	bsp := obs.StartSpan(rsp, "sweep.batch")
	bsp.SetAttr("lanes", len(idxs))
	defer bsp.End()

	// isolated runs each point alone; runPoint also marks points the batch
	// budget stopped before they started.
	isolated := func(ks []int) {
		for _, k := range ks {
			out[k] = runPoint(k, points[k], c, attempt, rsp)
			finalize(k)
		}
	}
	fallback := func(ks []int) {
		m.batches.With("fallback").Inc()
		bsp.SetAttr("fallback", true)
		isolated(ks)
	}
	if c.Budget.Err() != nil {
		isolated(idxs)
		return
	}
	// The batch-level fault point: an injected failure here exercises the
	// batch→isolated fallback exactly like a real batch infrastructure fault.
	if err := faultinject.Fire(faultinject.SweepBatch); err != nil {
		fallback(idxs)
		return
	}

	// Cache pre-check: points already in the store are served immediately
	// and never join the batch, mirroring the one-lane cached path.
	live := make([]int, 0, len(idxs))
	for _, k := range idxs {
		p := points[k]
		if c.Cache != nil && p.Key != "" {
			if payload, hit := c.Cache.Get(p.Key); hit {
				var cr core.Result
				if jerr := json.Unmarshal(payload, &cr); jerr == nil {
					out[k] = PointResult{
						Index:  k,
						Name:   p.Name,
						Result: &cr,
						PSS:    cr.PSS,
						Cached: true,
						Wall:   time.Since(start),
					}
					finalize(k)
					continue
				}
				// Stale or foreign payload: recompute rather than fail.
			}
		}
		live = append(live, k)
	}
	if len(live) <= 1 {
		isolated(live)
		return
	}

	rung0 := c.Ladder[0]
	lanes := make([]attemptLane, len(live))
	for i, k := range live {
		lanes[i] = attemptLane{p: points[k], opts: applyRung(points[k].Opts, rung0), ptTok: pointBudget(c)}
	}
	outs, ok := runAttempt(lanes, 0, rung0, c, bsp)
	if !ok {
		fallback(live)
		return
	}
	m.batches.With("ok").Inc()
	for i, k := range live {
		p := points[k]
		res := runLadder(k, p, c, attempt, bsp, lanes[i].ptTok, &outs[i])
		res.Wall = time.Since(start)
		if res.OK() {
			commitCache(c, p, res.Result)
		}
		out[k] = res
		finalize(k)
	}
}

// newEvaluator vectorises an attempt's systems: one system is wrapped as
// is, so the model (fault hooks included) sees exactly the calls a lone
// point makes; several go through osc.BatchSystems.
func newEvaluator(systems []dynsys.System) (dynsys.BatchEvaluator, error) {
	if len(systems) == 1 {
		return dynsys.NewLaneBatch(systems)
	}
	return osc.BatchSystems(systems)
}

// commitCache stores a freshly computed batched result under the point's
// content key, best effort — the one-lane path stores through Cache.Do, the
// batched path through Put; both end up under the same pnfp1 key because
// batching never changes the result.
func commitCache(c *Config, p Point, r *core.Result) {
	if c.Cache == nil || p.Key == "" || r == nil {
		return
	}
	if payload, err := json.Marshal(r); err == nil {
		_ = c.Cache.Put(p.Key, payload)
	}
}
