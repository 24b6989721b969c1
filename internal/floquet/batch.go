package floquet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/ode"
	"repro/internal/shooting"
)

// BatchItem is one lane of an AnalyzeBatch call: the scalar system (for the
// cheap per-lane stages), its periodic steady state, and its options. A nil
// PSS marks a lane that already failed upstream; it is reported as a lane
// error without joining the batch integration.
type BatchItem struct {
	Sys  dynsys.System
	PSS  *shooting.PSS
	Opts *Options
}

// AnalyzeBatch runs the Floquet analysis of K periodic steady states of one
// model family in lockstep. The eigenanalysis, v1(0) solve, and all
// diagnostics run per lane (preAdjoint / postAdjoint); the expensive
// backward adjoint integration — the dominant cost of a characterisation —
// runs once at full width K through ode.BatchAdjointBackward, whose per-lane
// arithmetic is bit-identical to the one-lane kernel. Lanes must agree on
// the effective adjoint step count (batchErr otherwise); the remaining
// knobs, Trace and Budget may differ.
//
// For every lane that succeeds, the Decomposition is bit-identical to what
// Analyze (this function over one lane) produces. laneErrs[k] reports
// per-lane failures; a non-nil batchErr (tripped batchTok or injected batch
// fault) voids all lanes, though each lane's Trace still shows how far its
// adjoint got.
func AnalyzeBatch(be dynsys.BatchEvaluator, items []BatchItem, batchTok *budget.Token) (decs []*Decomposition, laneErrs []error, batchErr error) {
	K := len(items)
	if K == 0 {
		return nil, nil, errors.New("floquet: AnalyzeBatch of zero lanes")
	}
	if be == nil {
		return nil, nil, errors.New("floquet: AnalyzeBatch requires a batch evaluator")
	}
	if be.Lanes() != K {
		return nil, nil, fmt.Errorf("floquet: batch evaluator has %d lanes, got %d items", be.Lanes(), K)
	}
	n := be.Dim()

	start := time.Now()
	fm := floquetMetrics.Get()
	effs := make([]Options, K)
	defer func() {
		wall := time.Since(start) // one reading: every lane's Wall is the batch wall
		for k := range effs {
			if tr := effs[k].Trace; tr != nil {
				tr.Wall = wall
			}
		}
	}()
	preps := make([]*adjPrep, K)
	laneErrs = make([]error, K)
	decs = make([]*Decomposition, K)
	steps := 0
	for k, it := range items {
		fm.analyses.Inc()
		if it.PSS == nil {
			effs[k] = it.Opts.defaults(0)
			laneErrs[k] = errors.New("floquet: lane has no periodic steady state")
		} else {
			effs[k] = it.Opts.defaults(len(it.PSS.Orbit.Points))
		}
		if tr := effs[k].Trace; tr != nil {
			// Reset to zero, not to the configured step count: Steps reports
			// the adjoint steps actually completed, so a trace from an early
			// exit shows real work done, not intent.
			*tr = Trace{}
		}
		if laneErrs[k] != nil {
			continue
		}
		if it.Sys == nil || it.Sys.Dim() != n {
			laneErrs[k] = fmt.Errorf("floquet: lane %d system incompatible with batch dimension %d", k, n)
			continue
		}
		if steps == 0 {
			steps = effs[k].Steps
		} else if effs[k].Steps != steps {
			return nil, nil, fmt.Errorf("floquet: AnalyzeBatch lanes disagree on adjoint steps (%d vs %d); batch only compatible analyses", steps, effs[k].Steps)
		}
	}

	// Pre-adjoint stage per live lane.
	live := 0
	ref := -1 // any live lane, donor of placeholder orbits for dead lanes
	for k, it := range items {
		if laneErrs[k] != nil {
			continue
		}
		prep, err := preAdjoint(it.Sys, it.PSS, effs[k], effs[k].Trace)
		if err != nil {
			laneErrs[k] = err
			continue
		}
		preps[k] = prep
		live++
		ref = k
	}
	if live == 0 {
		return decs, laneErrs, nil
	}

	// One full-width backward adjoint integration. Dead lanes ride along on a
	// donor lane's orbit and terminal condition; the lane-diagonal kernel
	// keeps them from influencing anyone, and their results are discarded.
	orbits := make([]*ode.Trajectory, K)
	t1s := make([]float64, K)
	yTs := make([][]float64, K)
	laneToks := make([]*budget.Token, K)
	for k := range items {
		if preps[k] != nil {
			orbits[k] = items[k].PSS.Orbit
			t1s[k] = items[k].PSS.T
			yTs[k] = preps[k].v10
			laneToks[k] = effs[k].Budget
		} else {
			orbits[k] = items[ref].PSS.Orbit
			t1s[k] = items[ref].PSS.T
			yTs[k] = preps[ref].v10
		}
	}
	_, bjac := dynsys.BatchFuncs(be)
	adjStart := time.Now()
	v1trajs, stepsDone, adjErrs, berr := ode.BatchAdjointBackward(bjac, orbits, t1s, yTs, steps, batchTok, laneToks)
	adjWall := time.Since(adjStart)
	for k := range items {
		if tr := effs[k].Trace; tr != nil && preps[k] != nil && stepsDone != nil {
			tr.AdjointWall = adjWall
			tr.Steps = stepsDone[k]
		}
	}
	if berr != nil {
		return nil, nil, berr
	}

	// Post-adjoint stage per surviving lane.
	for k, it := range items {
		if preps[k] == nil {
			continue
		}
		if adjErrs[k] != nil {
			laneErrs[k] = fmt.Errorf("floquet: adjoint integration: %w", adjErrs[k])
			continue
		}
		dec, err := postAdjoint(it.Sys, it.PSS, effs[k], effs[k].Trace, preps[k], v1trajs[k])
		if err != nil {
			laneErrs[k] = err
			continue
		}
		decs[k] = dec
	}
	return decs, laneErrs, nil
}
