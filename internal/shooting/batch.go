package shooting

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/linalg"
	"repro/internal/ode"
)

// BatchLane is one parameter variant in a FindBatch call: the scalar system
// (used for the adaptive pre-Newton stages and cheap per-lane evaluations),
// its initial guess, and its options. All lanes of one batch must agree on
// the solver knobs (Tol, MaxIter, StepsPerPeriod, Transient, NoDamping);
// Trace and Budget may differ per lane. A lane with a nil Sys is not shot:
// it rides along idle and comes back with neither a PSS nor an error.
type BatchLane struct {
	Sys    dynsys.System
	X0     []float64
	TGuess float64
	Opts   *Options
}

// laneRun is the mutable per-lane Newton state inside FindBatch.
type laneRun struct {
	f       ode.Func  // scalar adapter of Sys, for settle and damping checks
	x       []float64 // current iterate (always length n, zeros while invalid)
	T       float64
	fRef    float64
	lastRes float64
	res     float64 // residual at the iteration that converged/failed
	iters   int
	err     error
	active  bool // still Newton-iterating
	done    bool // converged, awaiting the batched finish
}

func (lr *laneRun) fail(err error) {
	lr.err = err
	lr.active = false
}

// FindBatch runs Newton shooting for K parameter variants of one model
// family in lockstep. The adaptive stages that cannot be stepped in lockstep
// — transient settling and the closest-return period scan — run per lane
// through the scalar systems; every fixed-step period integration (the
// monodromy solve of each Newton iteration, the damping trial orbits, and
// the final orbit recording) runs through the batched SoA kernels at full
// width K. Converged and failed lanes keep integrating with their last state
// so the batch never repacks; their results are simply ignored, which the
// lane-diagonal kernels make harmless.
//
// For every lane that succeeds, the returned PSS is bit-identical to what
// Find (this function over one lane) produces with the same inputs: the
// batch kernels preserve per-lane expression order, and all decision logic
// (residuals, bordered solves, damping) runs per lane.
//
// laneErrs[k] reports lane k's failure without affecting the others. A
// non-nil batchErr (tripped batchTok, injected batch fault, or inconsistent
// lane configuration) voids the whole batch.
func FindBatch(be dynsys.BatchEvaluator, lanes []BatchLane, batchTok *budget.Token) (pss []*PSS, laneErrs []error, batchErr error) {
	K := len(lanes)
	if K == 0 {
		return nil, nil, errors.New("shooting: FindBatch of zero lanes")
	}
	if be == nil {
		return nil, nil, errors.New("shooting: FindBatch requires a batch evaluator")
	}
	n := be.Dim()
	if be.Lanes() != K {
		return nil, nil, fmt.Errorf("shooting: batch evaluator has %d lanes, got %d lane specs", be.Lanes(), K)
	}

	effs := make([]Options, K)
	for k := range lanes {
		effs[k] = lanes[k].Opts.defaults()
	}
	o := effs[0]
	for k := 1; k < K; k++ {
		e := effs[k]
		if e.Tol != o.Tol || e.MaxIter != o.MaxIter || e.StepsPerPeriod != o.StepsPerPeriod ||
			e.Transient != o.Transient || e.NoDamping != o.NoDamping {
			return nil, nil, fmt.Errorf("shooting: FindBatch lane %d disagrees with lane 0 on solver knobs; batch only compatible solves", k)
		}
	}

	start := time.Now()
	sm := shootingMetrics.Get()
	itersSum, dampSum := 0, 0
	defer func() {
		sm.newtonIters.Add(int64(itersSum))
		sm.dampings.Add(int64(dampSum))
		wall := time.Since(start) // one reading: every shot lane's Wall is the batch wall
		for k, lane := range lanes {
			if tr := effs[k].Trace; tr != nil && lane.Sys != nil {
				tr.Wall = wall
			}
		}
	}()

	laneToks := make([]*budget.Token, K)
	runs := make([]*laneRun, K)
	for k := range lanes {
		lr := &laneRun{x: make([]float64, n)}
		runs[k] = lr
		lane := lanes[k]
		if lane.Sys == nil {
			continue // not shot: rides along idle
		}
		sm.finds.Inc()
		laneToks[k] = effs[k].Budget
		if tr := effs[k].Trace; tr != nil {
			*tr = Trace{}
		}
		switch {
		case lane.Sys.Dim() != n:
			lr.fail(fmt.Errorf("shooting: lane %d system dimension %d, batch dimension %d", k, lane.Sys.Dim(), n))
		case lane.TGuess <= 0:
			lr.fail(fmt.Errorf("shooting: period guess must be positive, got %g", lane.TGuess))
		case len(lane.X0) != n:
			lr.fail(fmt.Errorf("shooting: x0 has length %d, want %d", len(lane.X0), n))
		default:
			lr.f = sysFunc(lane.Sys)
			lr.active = true
		}
	}

	// Per-lane adaptive pre-Newton stages, then the equilibrium guard.
	fx0 := make([]float64, n)
	fxT := make([]float64, n)
	for k, lr := range runs {
		if !lr.active {
			continue
		}
		x, T, err := settle(lr.f, lanes[k].X0, lanes[k].TGuess, effs[k], effs[k].Trace)
		if err != nil {
			lr.fail(err)
			continue
		}
		copy(lr.x, x)
		lr.T = T
		lanes[k].Sys.Eval(lr.x, fx0)
		lr.fRef = linalg.NormInfVec(fx0)
		if lr.fRef == 0 {
			lr.fail(errors.New("shooting: initial point is an equilibrium; perturb the guess"))
		}
	}

	bf, bjac := dynsys.BatchFuncs(be)

	xs := make([]float64, n*K)
	t1s := make([]float64, K)
	pack := func(xof func(k int) []float64, tof func(k int) float64) {
		for k := 0; k < K; k++ {
			xk := xof(k)
			for i := 0; i < n; i++ {
				xs[i*K+k] = xk[i]
			}
			t1s[k] = tof(k)
		}
	}
	curX := func(k int) []float64 { return runs[k].x }
	curT := func(k int) float64 { return runs[k].T }

	bs := linalg.NewMatrix(n+1, n+1)
	rhs := make([]float64, n+1)
	deltas := make([][]float64, K)
	xcs := make([][]float64, K)
	tcs := make([]float64, K)
	lambdas := make([]float64, K)
	for k := range xcs {
		xcs[k] = make([]float64, n)
	}
	nActive := func() int {
		c := 0
		for _, lr := range runs {
			if lr.active {
				c++
			}
		}
		return c
	}
	halve := func(k int) {
		lambdas[k] *= 0.5
		dampSum++
		if tr := effs[k].Trace; tr != nil {
			tr.Dampings++
		}
	}

	for iter := 1; iter <= o.MaxIter && nActive() > 0; iter++ {
		if err := batchTok.Err(); err != nil {
			return nil, nil, fmt.Errorf("shooting: batched Newton iteration %d: %w", iter, err)
		}
		for k, lr := range runs {
			if !lr.active {
				continue
			}
			if err := laneToks[k].Err(); err != nil {
				lr.fail(fmt.Errorf("shooting: Newton iteration %d: %w", iter, err))
				continue
			}
			// Count the iteration as soon as it starts real work, so a trace
			// from a failure inside the monodromy integration reflects it.
			lr.iters = iter
			itersSum++
			if tr := effs[k].Trace; tr != nil {
				tr.Iters = iter
			}
		}

		pack(curX, curT)
		xTs, phis, verrs, berr := ode.BatchVariational(bf, bjac, n, K, t1s, xs, o.StepsPerPeriod, nil, batchTok, laneToks)
		if berr != nil {
			return nil, nil, berr
		}

		// Per-lane residual, convergence test and bordered Newton solve.
		for k, lr := range runs {
			deltas[k] = nil
			if !lr.active {
				continue
			}
			if verrs[k] != nil {
				lr.fail(wrapIntegration(fmt.Sprintf("monodromy integration (iteration %d)", iter), verrs[k]))
				continue
			}
			xT, phi := xTs[k], phis[k]
			lanes[k].Sys.Eval(lr.x, fx0)
			lanes[k].Sys.Eval(xT, fxT)

			scale := 1 + linalg.NormInfVec(lr.x)
			res := 0.0
			for i := 0; i < n; i++ {
				if d := math.Abs(xT[i] - lr.x[i]); d > res {
					res = d
				}
			}
			res /= scale
			lr.lastRes = res
			if tr := effs[k].Trace; tr != nil {
				tr.Residual = res
				tr.Residuals = append(tr.Residuals, res)
			}
			if res < o.Tol {
				if linalg.NormInfVec(fx0) < 1e-3*lr.fRef {
					lr.fail(errors.New("shooting: converged to an equilibrium, not a limit cycle"))
					continue
				}
				lr.res = res
				lr.active = false
				lr.done = true
				continue
			}

			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := phi.At(i, j)
					if i == j {
						v -= 1
					}
					bs.Set(i, j, v)
				}
				bs.Set(i, n, fxT[i])
				rhs[i] = lr.x[i] - xT[i]
			}
			for j := 0; j < n; j++ {
				bs.Set(n, j, fx0[j])
			}
			bs.Set(n, n, 0)
			rhs[n] = 0

			delta, err := linalg.Solve(bs, rhs)
			if err != nil {
				lr.fail(fmt.Errorf("shooting: bordered system singular at iteration %d: %w", iter, err))
				continue
			}
			deltas[k] = delta
			lr.res = res
			lambdas[k] = 1
		}

		// Lockstep damping: each round, every undecided lane either takes its
		// candidate through the cheap per-lane checks (a failed check halves
		// λ and waits for the next round, exactly one halving per round) or
		// stages it for one shared full-width trial integration.
		undecided := make([]bool, K)
		nUndecided := 0
		for k, lr := range runs {
			if lr.active && deltas[k] != nil {
				undecided[k] = true
				nUndecided++
			}
		}
		for try := 0; try < 6 && nUndecided > 0; try++ {
			trial := make([]bool, K)
			nTrial := 0
			for k, lr := range runs {
				if !undecided[k] {
					continue
				}
				delta := deltas[k]
				for i := 0; i < n; i++ {
					xcs[k][i] = lr.x[i] + lambdas[k]*delta[i]
				}
				tcs[k] = lr.T + lambdas[k]*delta[n]
				if tcs[k] <= 0.2*lanes[k].TGuess || tcs[k] > 5*lanes[k].TGuess {
					halve(k)
					continue
				}
				lanes[k].Sys.Eval(xcs[k], fx0)
				if linalg.NormInfVec(fx0) < 1e-3*lr.fRef {
					// Candidate is collapsing onto an equilibrium.
					halve(k)
					continue
				}
				if o.NoDamping {
					copy(lr.x, xcs[k])
					lr.T = tcs[k]
					undecided[k] = false
					nUndecided--
					continue
				}
				trial[k] = true
				nTrial++
			}
			if nTrial == 0 {
				continue
			}
			pack(
				func(k int) []float64 {
					if trial[k] {
						return xcs[k]
					}
					return runs[k].x
				},
				func(k int) float64 {
					if trial[k] {
						return tcs[k]
					}
					return runs[k].T
				},
			)
			rerrs, berr := ode.BatchRK4(bf, n, K, t1s, xs, o.StepsPerPeriod, batchTok, laneToks)
			if berr != nil {
				return nil, nil, berr
			}
			for k, lr := range runs {
				if !trial[k] {
					continue
				}
				if rerr := rerrs[k]; rerr != nil {
					if budget.Is(rerr) {
						lr.fail(fmt.Errorf("shooting: damping trial (iteration %d): %w", iter, rerr))
						undecided[k] = false
						nUndecided--
						continue
					}
					// A non-finite trial orbit is just a rejected candidate:
					// halve the step and keep looking.
					halve(k)
					continue
				}
				resc := 0.0
				for i := 0; i < n; i++ {
					if d := math.Abs(xs[i*K+k] - xcs[k][i]); d > resc {
						resc = d
					}
				}
				resc /= 1 + linalg.NormInfVec(xcs[k])
				if resc < lr.res || resc < o.Tol {
					copy(lr.x, xcs[k])
					lr.T = tcs[k]
					undecided[k] = false
					nUndecided--
					continue
				}
				halve(k)
			}
		}
		for k, lr := range runs {
			if undecided[k] && lr.active {
				lr.fail(fmt.Errorf("%w: damping failed at iteration %d (residual %.3e)", ErrNoConvergence, iter, lr.res))
			}
		}
	}
	for _, lr := range runs {
		if lr.active {
			lr.fail(fmt.Errorf("%w after %d iterations (residual %.3e)", ErrNoConvergence, o.MaxIter, lr.lastRes))
		}
	}

	// Batched finish: one full-width variational integration records the
	// dense orbit and monodromy of every converged lane.
	pss = make([]*PSS, K)
	laneErrs = make([]error, K)
	anyDone := false
	recs := make([]*ode.Trajectory, K)
	for k, lr := range runs {
		if lr.done {
			anyDone = true
			recs[k] = &ode.Trajectory{}
		}
	}
	if anyDone {
		pack(curX, curT)
		_, phis, verrs, berr := ode.BatchVariational(bf, bjac, n, K, t1s, xs, o.StepsPerPeriod, recs, batchTok, laneToks)
		if berr != nil {
			return nil, nil, berr
		}
		for k, lr := range runs {
			if !lr.done {
				continue
			}
			if verrs[k] != nil {
				lr.err = wrapIntegration("orbit recording", verrs[k])
				lr.done = false
				continue
			}
			pss[k] = &PSS{
				X0:        append([]float64(nil), lr.x...),
				T:         lr.T,
				Orbit:     recs[k],
				Monodromy: phis[k],
				Residual:  lr.res,
				Iters:     lr.iters,
				eig:       &pssEigCache{},
			}
			sm.converged.Inc()
		}
	}
	for k, lr := range runs {
		if !lr.done {
			laneErrs[k] = lr.err
		}
	}
	return pss, laneErrs, nil
}
