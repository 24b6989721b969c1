package sweep

import (
	"sort"

	"repro/internal/dynsys"
	"repro/internal/floquet"
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

// newEvaluator vectorises an attempt's systems: one system is wrapped as
// is, so the model (fault hooks included) sees exactly the calls a lone
// point makes; several go through osc.BatchSystems.
func newEvaluator(systems []dynsys.System) (dynsys.BatchEvaluator, error) {
	if len(systems) == 1 {
		return dynsys.NewLaneBatch(systems)
	}
	return osc.BatchSystems(systems)
}
