package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/shooting"
)

// BatchPoint is one lane of a CharacteriseBatch call. A point whose
// Opts.ReusePSS is set skips shooting and joins the batch at the Floquet
// stage.
type BatchPoint struct {
	Sys    dynsys.System
	X0     []float64
	TGuess float64
	Opts   *Options
}

// CharacteriseBatch runs the full Section-9 pipeline for K parameter
// variants of one model family in lockstep: Newton shooting through
// shooting.FindBatch, Floquet analysis through floquet.AnalyzeBatch, and the
// cheap c quadratures per lane. All fixed-step period integrations — the
// dominant cost — run at full width K through the SoA batch kernels, whose
// per-lane arithmetic does not depend on K, so every successful lane returns
// exactly the Result that Characterise (K = 1) would.
//
// Points must agree on the solver knobs (the sweep layer batches only points
// with identical options fingerprints); Trace, Budget, Partial, Span and
// ReusePSS may differ per point. laneErrs[k] reports per-lane failures; a
// non-nil batchErr (tripped batchTok, injected batch fault, or an
// incompatible batch) voids every lane.
//
// One batch emits one span set: "core.Characterise" (attribute lanes = K)
// with one "shooting.Find" and one "floquet.Analyze" child for the whole
// batch and a "quadrature" child per lane.
func CharacteriseBatch(be dynsys.BatchEvaluator, points []BatchPoint, batchTok *budget.Token) (results []*Result, laneErrs []error, batchErr error) {
	K := len(points)
	if K == 0 {
		return nil, nil, errors.New("core: CharacteriseBatch of zero points")
	}
	if be == nil {
		return nil, nil, errors.New("core: CharacteriseBatch requires a batch evaluator")
	}
	if be.Lanes() != K {
		return nil, nil, fmt.Errorf("core: batch evaluator has %d lanes, got %d points", be.Lanes(), K)
	}
	var parent *obs.Span
	for _, pt := range points {
		if pt.Opts != nil && pt.Opts.Span != nil {
			parent = pt.Opts.Span
			break
		}
	}
	sp := obs.StartSpan(parent, "core.Characterise")
	sp.SetAttr("lanes", K)
	results, laneErrs, batchErr = characteriseBatch(be, points, batchTok, sp)
	m := coreMetrics.Get()
	for k := range points {
		if batchErr != nil || laneErrs[k] != nil {
			m.failed.Inc()
		} else {
			m.ok.Inc()
		}
	}
	sp.EndErr(firstErr(batchErr, laneErrs, nil))
	return results, laneErrs, batchErr
}

// firstErr is the error a span records: the batch error, else the first
// failure among the lanes that entered the stage (every lane when entered
// is nil).
func firstErr(batchErr error, laneErrs []error, entered func(k int) bool) error {
	if batchErr != nil {
		return batchErr
	}
	for k, err := range laneErrs {
		if err != nil && (entered == nil || entered(k)) {
			return err
		}
	}
	return nil
}

func characteriseBatch(be dynsys.BatchEvaluator, points []BatchPoint, batchTok *budget.Token, sp *obs.Span) ([]*Result, []error, error) {
	K := len(points)
	plans := make([]stagePlan, K)
	psses := make([]*shooting.PSS, K)
	lanes := make([]shooting.BatchLane, K)
	shoot, reused := 0, 0
	start := time.Now()
	defer func() {
		wall := time.Since(start) // one reading: every lane's Wall is the batch wall
		for k := range plans {
			if tr := plans[k].tr; tr != nil {
				tr.Wall = wall
			}
		}
	}()
	for k, pt := range points {
		plans[k] = resolveStages(pt.Opts)
		if tr := plans[k].tr; tr != nil {
			*tr = Trace{}
		}
		if pt.Opts != nil && pt.Opts.ReusePSS != nil {
			psses[k] = pt.Opts.ReusePSS
			reused++
			continue // a nil Sys keeps the lane idle through shooting
		}
		lanes[k] = shooting.BatchLane{Sys: pt.Sys, X0: pt.X0, TGuess: pt.TGuess, Opts: plans[k].so}
		shoot++
	}
	if reused > 0 {
		sp.SetAttr("pss_reused", reused)
	}

	results := make([]*Result, K)
	laneErrs := make([]error, K)

	if shoot > 0 {
		ssp := obs.StartSpan(sp, "shooting.Find")
		found, sErrs, berr := shooting.FindBatch(be, lanes, batchTok)
		ssp.EndErr(firstErr(berr, sErrs, nil))
		if berr != nil {
			return nil, nil, berr
		}
		for k := range points {
			if sErrs[k] != nil {
				if budget.Is(sErrs[k]) {
					budget.RecordTrip("shooting")
				}
				laneErrs[k] = fmt.Errorf("core: periodic steady state: %w", sErrs[k])
			} else if found[k] != nil {
				psses[k] = found[k]
			}
		}
	}
	anyPSS := false
	for k, pss := range psses {
		if pss == nil {
			continue
		}
		anyPSS = true
		if part := plans[k].part; part != nil {
			part.PSS = pss
		}
	}
	if !anyPSS {
		return results, laneErrs, nil
	}

	items := make([]floquet.BatchItem, K)
	for k, pt := range points {
		items[k] = floquet.BatchItem{Sys: pt.Sys, PSS: psses[k], Opts: plans[k].fo}
	}
	fsp := obs.StartSpan(sp, "floquet.Analyze")
	decs, fErrs, berr := floquet.AnalyzeBatch(be, items, batchTok)
	fsp.EndErr(firstErr(berr, fErrs, func(k int) bool { return psses[k] != nil }))
	if berr != nil {
		return nil, nil, berr
	}

	for k, pt := range points {
		if laneErrs[k] != nil {
			continue
		}
		if fErrs[k] != nil {
			if budget.Is(fErrs[k]) {
				budget.RecordTrip("floquet")
			}
			laneErrs[k] = fmt.Errorf("core: floquet analysis: %w", fErrs[k])
			continue
		}
		dec := decs[k]
		if part := plans[k].part; part != nil {
			part.Floquet = dec
		}
		if err := plans[k].bud.Err(); err != nil {
			budget.RecordTrip("quadrature")
			laneErrs[k] = fmt.Errorf("core: before c quadrature: %w", err)
			continue
		}
		qp := plans[k].qp
		if qp <= 0 {
			qp = max(len(dec.V1.Points), 1000) // FromDecomposition's default grid
		}
		qsp := obs.StartSpan(sp, "quadrature")
		qStart := time.Now()
		res, err := FromDecomposition(pt.Sys, psses[k], dec, qp)
		if tr := plans[k].tr; tr != nil {
			tr.QuadWall = time.Since(qStart)
			tr.QuadPoints = qp
		}
		qsp.SetAttr("points", qp)
		qsp.EndErr(err)
		if err != nil {
			laneErrs[k] = err
			continue
		}
		results[k] = res
	}
	return results, laneErrs, nil
}
