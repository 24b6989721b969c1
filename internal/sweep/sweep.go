// Package sweep runs batches of phase-noise characterisations — parameter
// sweeps over bias, supply, or device values — through the full
// shooting → Floquet → c-quadrature pipeline on a bounded worker pool.
//
// The engine mirrors the sde.Ensemble pattern: a fixed number of workers
// drain an index channel and write into a result slice, so the output order
// is deterministic whatever the scheduling. Robustness comes in four layers:
//
//   - a retry ladder: when a point fails with a refinable error (Newton
//     shooting did not converge, integrator step-size underflow or
//     divergence, no unit Floquet multiplier, adjoint closure too large),
//     the engine escalates through rungs of tighter tolerance, more
//     integration steps, and longer transient before recording a structured
//     per-point failure;
//   - deadlines: Config.AttemptTimeout and Config.PointTimeout bound each
//     attempt and each point's whole ladder by wall clock, and Config.Budget
//     cancels or deadline-bounds the whole batch. Cut-off points fail with
//     typed budget.ErrBudgetExceeded / budget.ErrCanceled while every other
//     point completes;
//   - panic isolation: each attempt runs in its own goroutine with panic
//     recovery, so a panicking model Eval/Jacobian becomes a structured
//     ErrModelPanic failure (carrying the recovered value and stack) for
//     that point instead of killing the process or deadlocking the feeder;
//   - partial results: when shooting converged but Floquet failed or the
//     budget expired, the PointResult keeps the best converged PSS, so a
//     batch reports everything it learned.
//
// One hard, hostile, or hanging point never aborts the batch.
//
// With Config.Cache attached, keyed points resolve through the
// content-addressed result store first: repeated batches become cache sweeps,
// and concurrent identical points collapse to a single pipeline run.
package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/faultinject"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/ode"
	"repro/internal/shooting"
)

// Point is one characterisation job in a batch.
type Point struct {
	Name   string        // label carried into results and progress hooks
	System dynsys.System // oscillator model
	X0     []float64     // initial state guess
	TGuess float64       // period guess
	Opts   *core.Options // base pipeline options (nil for defaults); rungs scale from these
	// Key, when non-empty and Config.Cache is set, content-addresses this
	// point's result: a hit skips the whole retry ladder, a successful run
	// is stored for future batches. Build keys with
	// cache.CharacterisationKey so every producer (CLI, job server, library
	// callers) shares one store. The key must capture everything that
	// determines the result — model identity, parameters, X0, TGuess and
	// the effective options — or cached answers will be wrong.
	Key string
}

// Rung is one escalation step of the retry ladder. Zero-valued fields leave
// the corresponding option untouched; scaling factors apply to the point's
// base options (or the solver defaults when the base leaves them unset).
type Rung struct {
	Name           string  // label recorded in Attempt
	TolDiv         float64 // divide the shooting tolerance by this (>1 tightens)
	StepsFactor    float64 // multiply shooting StepsPerPeriod (>1 refines)
	AdjointFactor  float64 // multiply explicit floquet Steps (>1 refines; default Steps auto-scale with StepsPerPeriod)
	TransientExtra float64 // additional transient periods before shooting
}

// Defaults the rungs scale against when the point's base options leave a
// field unset. They mirror shooting.Options.defaults.
const (
	defaultTol            = 1e-10
	defaultStepsPerPeriod = 2000
	defaultTransient      = 20
)

// defaultAbandonGrace is how long the engine waits, after cancelling an
// attempt's token, for a model that ignores cancellation before abandoning
// the attempt goroutine (see Config.AbandonGrace).
const defaultAbandonGrace = time.Second

// DefaultLadder escalates twice after the base attempt: a 10× tighter /
// 2× finer pass, then a 100× tighter / 4× finer pass with a much longer
// transient for points that start far off the attractor.
func DefaultLadder() []Rung {
	return []Rung{
		{Name: "base"},
		{Name: "tight", TolDiv: 10, StepsFactor: 2, AdjointFactor: 2, TransientExtra: 20},
		{Name: "max", TolDiv: 100, StepsFactor: 4, AdjointFactor: 4, TransientExtra: 60},
	}
}

// ErrModelPanic tags a per-point failure caused by a panicking model
// Eval/Jacobian/Noise. Branch with errors.Is(err, ErrModelPanic); recover
// details with errors.As into a *PanicError.
var ErrModelPanic = errors.New("sweep: model panicked")

// PanicError is the structured failure recorded when a model panics during
// an attempt. It satisfies errors.Is(err, ErrModelPanic).
type PanicError struct {
	Point string // Point.Name
	Rung  string // ladder rung during which the panic fired
	Value any    // the recovered panic value
	Stack []byte // goroutine stack at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: model panicked on point %q (rung %q): %v", e.Point, e.Rung, e.Value)
}

// Is reports target == ErrModelPanic so the sentinel matches through wraps.
func (e *PanicError) Is(target error) bool { return target == ErrModelPanic }

// Attempt records one ladder rung tried on one point.
type Attempt struct {
	Rung     int           // index into the ladder
	RungName string        // Rung.Name
	Err      error         // nil on success
	Trace    core.Trace    // per-stage diagnostics of this attempt
	Wall     time.Duration // wall-clock time of this attempt
	// Flight is the flight-recorder dump: the last Config.FlightRecorder
	// span events of this attempt's subtree, captured when the attempt
	// panicked, was cut off by a budget/timeout, or was abandoned. Empty for
	// successes and ordinary retryable failures.
	Flight []obs.Event
}

// PointResult is the outcome of one point: either a characterisation or a
// structured failure, plus the full retry history.
type PointResult struct {
	Index  int    // position in the input slice
	Name   string // Point.Name
	Result *core.Result
	Err    error // nil iff Result != nil; the last attempt's error otherwise
	// PSS is the best converged periodic steady state seen across all
	// attempts (smallest closure residual). On success it equals
	// Result.PSS; on a degraded failure — shooting converged but Floquet
	// failed, or the budget expired mid-pipeline — it preserves what the
	// point did learn.
	PSS      *shooting.PSS
	Attempts []Attempt
	// Wall runs from the start of the point's unit until the point settles:
	// a hit's lookup, a joiner's wait, or a leader's base attempt plus its
	// own continuation (in a lockstep group, plus the continuations of the
	// lanes before it). Zero for a point skipped before it started.
	Wall time.Duration
	// Cached reports that the result was served from the content-addressed
	// store (or by joining an identical in-flight computation) without
	// running the pipeline; Attempts is empty in that case.
	Cached bool
}

// OK reports whether the point characterised successfully.
func (r *PointResult) OK() bool { return r.Err == nil && r.Result != nil }

// Degraded reports whether the point failed overall but still carries a
// converged periodic steady state (partial result).
func (r *PointResult) Degraded() bool { return r.Err != nil && r.PSS != nil }

// Config tunes a batch run.
type Config struct {
	// Workers bounds the worker pool (default GOMAXPROCS, capped at the
	// number of points).
	Workers int
	// Ladder is the escalation sequence (default DefaultLadder()). The
	// first rung is the base attempt; an empty slice gets one plain rung.
	Ladder []Rung
	// Budget, when non-nil, bounds the whole batch: on cancellation or
	// deadline expiry, in-flight attempts are cut off (typed error per
	// point), pending points are marked without running, and Run returns
	// with every completed result intact.
	Budget *budget.Token
	// PointTimeout bounds one point's whole retry ladder by wall clock
	// (0 = unbounded). On expiry the point fails with a wrapped
	// budget.ErrBudgetExceeded.
	PointTimeout time.Duration
	// AttemptTimeout bounds each individual attempt by wall clock
	// (0 = unbounded). Budget cut-offs are not retryable, so an attempt
	// timeout also ends the point's ladder.
	AttemptTimeout time.Duration
	// AbandonGrace is how long to wait, after a deadline or cancellation
	// has tripped the attempt's token, for the model to return before the
	// attempt goroutine is abandoned (default 1s). Cooperative models exit
	// within a few integrator steps; only a model that ignores cancellation
	// entirely (e.g. blocks forever inside Eval) is abandoned, and its
	// late result is discarded.
	AbandonGrace time.Duration
	// OnAttempt, when non-nil, streams progress: it is called after every
	// attempt (success or failure) on any point. Calls are serialised by
	// the engine, so the hook needs no locking of its own.
	OnAttempt func(index int, name string, att Attempt)
	// OnPoint, when non-nil, is called once per point as it completes,
	// serialised like OnAttempt.
	//
	// Ordering guarantee: exactly one call per point, and res.Index is exact
	// (the position in the input slice), but calls arrive in completion
	// order, not input order — and with a Cache attached the interleaving
	// gets extreme, because cached points complete near-instantly while
	// computed ones take seconds. Consumers must key on res.Index, never on
	// arrival order. Points skipped because the batch budget tripped are
	// reported here too.
	OnPoint func(res PointResult)
	// Cache, when non-nil, is the content-addressed result store consulted
	// for every point with a non-empty Key before its retry ladder runs. A
	// hit returns the stored result (PointResult.Cached = true) without
	// invoking the pipeline; concurrent identical points — within this
	// batch, across batches, or across processes sharing a disk store —
	// collapse to one computation via singleflight. Only successful
	// characterisations are stored; a point that joins an in-flight
	// identical computation shares its outcome, including a failure (a
	// budget trip in the computing caller fails its waiters too).
	Cache *cache.Store
	// BatchLanes, when > 1, groups compatible points — same state dimension
	// and identical effective base-rung solver options — into lockstep SoA
	// batches of up to this many lanes. A batched group runs its base-rung
	// attempt through core.CharacteriseBatch at full width, under the same
	// attempt supervisor a lone point (a one-lane group) uses; every lane's
	// result is bit-identical to the one-lane pipeline (and hashes to the
	// same cache key), so batching is purely a throughput lever. Per-point
	// budget cut-offs, structured failures, attempt traces and flight dumps
	// are preserved: a lane that fails retryably continues its own retry
	// ladder from the next rung, and a batch-level infrastructure failure
	// (injected fault, model panic inside the lockstep kernels) falls every
	// lane back to the fully isolated one-lane path from the base rung.
	// Batched lanes claim their keys in Cache exactly as lone points do.
	BatchLanes int
	// Span, when non-nil, parents the batch's root span so the whole sweep
	// subtree lands in the caller's trace (e.g. a serve job's span). When nil
	// the root span starts on the process-wide emitter as before.
	Span *obs.Span
	// FlightRecorder, when > 0, runs every attempt under a ring buffer of
	// this many span events. If the attempt panics, trips its budget/timeout,
	// or is abandoned, the ring is dumped into Attempt.Flight so the failure
	// carries its own bounded timeline — even when process-wide tracing is
	// off. 0 disables the recorder.
	FlightRecorder int
	// DiscardResults makes Run release each point's result right after its
	// OnPoint delivery and return nil instead of the accumulated slice — the
	// memory-bounding mode for huge sweeps whose results stream somewhere
	// else (a spill file, a network sink) as they complete. OnPoint is the
	// only way to observe results in this mode.
	DiscardResults bool
}

// Retryable reports whether err is a refinable pipeline failure — one the
// retry ladder may cure with tighter tolerances, more steps, or a longer
// transient. Structural errors (bad dimensions, unstable cycles, degenerate
// monodromy), budget cut-offs, and model panics are not retryable: repeating
// a cut-off under the same budget cannot help, and a panicking model stays
// broken at any tolerance.
func Retryable(err error) bool {
	if err == nil || budget.Is(err) || errors.Is(err, ErrModelPanic) {
		return false
	}
	return errors.Is(err, shooting.ErrNoConvergence) ||
		errors.Is(err, shooting.ErrIntegration) ||
		errors.Is(err, ode.ErrStepSizeUnderflow) ||
		errors.Is(err, ode.ErrNewtonDiverged) ||
		errors.Is(err, floquet.ErrNoUnitMultiplier) ||
		errors.Is(err, floquet.ErrAdjointClosure) ||
		// Injected chaos failures retry so fault plans can drive the ladder
		// (e.g. Count:1 fails the base attempt and recovers on the next rung).
		errors.Is(err, faultinject.ErrInjected)
}

// applyRung builds the options for one attempt: a deep-enough copy of the
// point's base options (caller structs are never mutated) with the rung's
// scalings applied against the base values or the solver defaults.
func applyRung(base *core.Options, r Rung) *core.Options {
	out := core.Options{}
	if base != nil {
		out = *base
	}
	sc := shooting.Options{}
	if out.Shooting != nil {
		sc = *out.Shooting
	}
	fc := floquet.Options{}
	if out.Floquet != nil {
		fc = *out.Floquet
	}
	if r.TolDiv > 1 {
		if sc.Tol <= 0 {
			sc.Tol = defaultTol
		}
		sc.Tol /= r.TolDiv
	}
	if r.StepsFactor > 1 {
		if sc.StepsPerPeriod <= 0 {
			sc.StepsPerPeriod = defaultStepsPerPeriod
		}
		sc.StepsPerPeriod = int(float64(sc.StepsPerPeriod) * r.StepsFactor)
	}
	if r.TransientExtra > 0 {
		if sc.Transient <= 0 {
			sc.Transient = defaultTransient
		}
		sc.Transient += r.TransientExtra
	}
	// Explicit adjoint step counts scale directly; the default (0) already
	// auto-scales with the orbit resolution raised by StepsFactor.
	if r.AdjointFactor > 1 && fc.Steps > 0 {
		fc.Steps = int(float64(fc.Steps) * r.AdjointFactor)
	}
	out.Shooting = &sc
	out.Floquet = &fc
	return &out
}

// Run characterises every point and returns one PointResult per point, in
// input order. Failures are per-point and structured; Run itself never
// fails. Points must not share mutable state (a dynsys.System may be shared
// only if its methods are safe for concurrent use).
//
// When cfg.Budget trips mid-batch, Run returns promptly: completed results
// are kept, in-flight points fail with a typed budget error, and points that
// never started are marked with a wrapped budget.ErrCanceled /
// ErrBudgetExceeded.
func Run(points []Point, cfg *Config) []PointResult {
	var c Config
	if cfg != nil {
		c = *cfg
	}
	if len(c.Ladder) == 0 {
		c.Ladder = DefaultLadder()
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(points) {
		workers = len(points)
	}
	if workers < 1 {
		workers = 1
	}

	out := make([]PointResult, len(points))
	var hookMu sync.Mutex // serialises user hooks across workers
	attempt := func(i int, name string, att Attempt) {
		if c.OnAttempt == nil {
			return
		}
		hookMu.Lock()
		defer hookMu.Unlock()
		c.OnAttempt(i, name, att)
	}
	done := func(res PointResult) {
		if c.OnPoint == nil {
			return
		}
		hookMu.Lock()
		defer hookMu.Unlock()
		c.OnPoint(res)
	}

	m := sweepMetrics.Get()
	// Add, not Set: concurrent batches (several server jobs, overlapping CLI
	// runs) share this gauge, and each decrements once per finished point —
	// including points short-circuited by the cache or skipped on a budget
	// trip — so the gauge returns to its pre-batch value when Run returns.
	m.queueDepth.Add(float64(len(points)))
	rsp := obs.StartSpan(c.Span, "sweep.Run")
	rsp.SetAttr("points", len(points))
	rsp.SetAttr("workers", workers)

	// finalize does the per-point bookkeeping once out[k] is in its final
	// state, whatever path produced it.
	finalize := func(k int) {
		switch {
		case out[k].Cached && out[k].OK():
			m.pointsCached.Inc()
		case out[k].OK():
			m.pointsOK.Inc()
		case out[k].Degraded():
			m.pointsDegraded.Inc()
		default:
			m.pointsFailed.Inc()
		}
		m.pointSeconds.Observe(out[k].Wall.Seconds())
		m.queueDepth.Add(-1)
		done(out[k])
		if c.DiscardResults {
			// The hook has seen the result; drop the engine's reference so a
			// huge sweep retains O(workers), not O(points), result payloads.
			out[k] = PointResult{}
		}
	}

	// A unit is what one worker picks up in one go: a single point's retry
	// ladder, or a lockstep batch of compatible points.
	units := planUnits(points, &c)
	rsp.SetAttr("units", len(units))

	var wg sync.WaitGroup
	next := make(chan []int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idxs := range next {
				// A unit dequeued after the budget tripped never starts; it is
				// skipped like the units the feeder never sent.
				if err := c.Budget.Err(); err != nil {
					markSkipped(points, out, [][]int{idxs}, err, done)
					continue
				}
				runUnit(idxs, points, &c, out, attempt, finalize, rsp)
			}
		}()
	}
	// The feeder watches the batch budget so a cancellation with idle-free
	// workers cannot strand it: pending points are marked without running.
	cancelCh := c.Budget.Done() // nil when the budget is not cancelable
feed:
	for u := range units {
		if err := c.Budget.Err(); err != nil { // deadline-only budgets have no Done channel
			markSkipped(points, out, units[u:], err, done)
			break feed
		}
		select {
		case next <- units[u]:
		case <-cancelCh:
			markSkipped(points, out, units[u:], c.Budget.Err(), done)
			break feed
		}
	}
	close(next)
	wg.Wait()
	rsp.End()
	if c.DiscardResults {
		return nil
	}
	return out
}

// markSkipped records budget-typed failures for every point of the units
// that never reached a worker.
func markSkipped(points []Point, out []PointResult, units [][]int, cause error, done func(PointResult)) {
	if cause == nil {
		cause = budget.ErrCanceled
	}
	m := sweepMetrics.Get()
	for _, u := range units {
		for _, j := range u {
			out[j] = PointResult{
				Index: j,
				Name:  points[j].Name,
				Err:   fmt.Errorf("sweep: point %q not started: %w", points[j].Name, cause),
			}
			m.pointsSkipped.Inc()
			m.queueDepth.Add(-1)
			done(out[j])
		}
	}
}

// runUnit runs one worker unit, a lone point or a lockstep group; every
// point of a sweep goes through it. Each point claims its key in
// Config.Cache: a hit is served, a computation already in flight is joined,
// and otherwise the point leads. The leaders run the base rung as one
// K-lane attempt, then each climbs its own retry ladder and publishes its
// key. Joined keys are waited on only after every key the unit leads is
// published, so two units that joined each other's keys cannot deadlock. A
// batch-level failure (injected fault, panic inside the lockstep kernels)
// re-runs each leader alone from the base rung, under the claim it already
// holds. A payload that does not decode is recomputed and overwritten.
func runUnit(idxs []int, points []Point, c *Config, out []PointResult, attempt func(int, string, Attempt), finalize func(int), rsp *obs.Span) {
	start := time.Now()
	lone := len(idxs) == 1
	var usp *obs.Span
	if lone {
		usp = obs.StartSpan(rsp, "sweep.point")
		usp.SetAttr("index", idxs[0])
		usp.SetAttr("name", points[idxs[0]].Name)
	} else {
		usp = obs.StartSpan(rsp, "sweep.batch")
		usp.SetAttr("lanes", len(idxs))
		defer usp.End()
	}
	// settle is the one writer of a point's result and of its Wall.
	settle := func(k int, res PointResult) {
		res.Index, res.Name, res.Wall = k, points[k].Name, time.Since(start)
		out[k] = res
		if lone {
			usp.SetAttr("attempts", len(res.Attempts))
			usp.SetAttr("cached", res.Cached)
			usp.EndErr(res.Err)
		}
		finalize(k)
	}
	// serve settles k from a payload it did not compute; false means the
	// payload does not decode.
	serve := func(k int, payload []byte) bool {
		var cr core.Result
		if json.Unmarshal(payload, &cr) != nil {
			return false
		}
		settle(k, PointResult{Result: &cr, PSS: cr.PSS, Cached: true})
		return true
	}
	// publish hands a leader's outcome to its claim — encoding it only when
	// there is a store to keep it — and settles the point.
	publish := func(k int, cl cache.Claim, res PointResult) {
		if c.Cache != nil && points[k].Key != "" {
			var payload []byte
			err := res.Err
			if res.OK() {
				payload, err = json.Marshal(res.Result)
			}
			// Publish reports the store rejecting the payload; the point keeps
			// its own result either way.
			_ = cl.Publish(payload, err)
		}
		settle(k, res)
	}

	claims := make([]cache.Claim, len(idxs))
	rung0 := c.Ladder[0]
	lanes := make([]attemptLane, 0, len(idxs))
	for i, k := range idxs {
		cl := c.Cache.Claim(points[k].Key)
		if cl.Origin == cache.OriginMem || cl.Origin == cache.OriginDisk {
			if serve(k, cl.Val) {
				continue
			}
			cl = cl.Reclaim()
		}
		claims[i] = cl
		if cl.Origin == cache.OriginComputed {
			lanes = append(lanes, attemptLane{p: points[k], opts: applyRung(points[k].Opts, rung0), ptTok: pointBudget(c), i: i})
		}
	}

	var outs []attemptOutcome
	ok := len(lanes) > 0
	if len(lanes) > 1 {
		// The batch-level fault point: an injected failure here exercises the
		// batch→isolated fallback exactly like a real batch infrastructure fault.
		ok = faultinject.Fire(faultinject.SweepBatch) == nil
	}
	if ok {
		outs, ok = runAttempt(lanes, 0, rung0, c, usp)
	}
	if len(lanes) > 1 {
		m := sweepMetrics.Get()
		if ok {
			m.batches.With("ok").Inc()
		} else {
			m.batches.With("fallback").Inc()
			usp.SetAttr("fallback", true)
		}
	}
	for j, ln := range lanes {
		k := idxs[ln.i]
		if ok {
			publish(k, claims[ln.i], runLadder(k, ln.p, c, attempt, usp, ln.ptTok, &outs[j]))
		} else {
			publish(k, claims[ln.i], runLadder(k, ln.p, c, attempt, usp, pointBudget(c), nil))
		}
	}

	for i, k := range idxs {
		for cl := claims[i]; cl.Origin == cache.OriginShared; {
			payload, err := cl.Wait()
			if err != nil {
				settle(k, PointResult{Cached: true, Err: fmt.Errorf("sweep: point %q shared a failed identical computation: %w", points[k].Name, err)})
				break
			}
			if serve(k, payload) {
				break
			}
			if cl = cl.Reclaim(); cl.Origin == cache.OriginComputed {
				publish(k, cl, runLadder(k, points[k], c, attempt, usp, pointBudget(c), nil))
			}
		}
	}
}

// pointBudget starts one point's budget: the batch budget, bounded by
// Config.PointTimeout.
func pointBudget(c *Config) *budget.Token {
	if c.PointTimeout > 0 {
		return budget.WithTimeout(c.Budget, c.PointTimeout)
	}
	return c.Budget
}

// reusablePSS decides whether the previous attempt's converged solution can
// replace the next rung's shooting stage: the shooting knobs must be
// unchanged (the solve would reproduce the same PSS at full cost) and the
// recorded residual must already meet the next rung's tolerance. This is the
// retry-ladder fast path for failures downstream of shooting — an adjoint
// that didn't close, a budget that expired mid-Floquet — retried with only
// downstream resolution raised.
func reusablePSS(prev, next *core.Options, pss *shooting.PSS) bool {
	if prev == nil || next == nil || pss == nil {
		return false
	}
	pe, ne := prev.Shooting.Effective(), next.Shooting.Effective()
	if pe.Tol != ne.Tol || pe.MaxIter != ne.MaxIter || pe.StepsPerPeriod != ne.StepsPerPeriod ||
		pe.Transient != ne.Transient || pe.NoDamping != ne.NoDamping {
		return false
	}
	return pss.Residual < ne.Tol
}

// runLadder walks one point up the ladder until an attempt succeeds or the
// failure is not retryable, under the point budget ptTok, running each rung
// as a one-lane attempt. first, when non-nil, is the base rung's outcome
// already run in a lockstep group; the ladder then continues from rung 1,
// reusing that attempt's converged PSS when it can.
func runLadder(index int, p Point, c *Config, attempt func(int, string, Attempt), psp *obs.Span, ptTok *budget.Token, first *attemptOutcome) PointResult {
	m := sweepMetrics.Get()
	res := PointResult{Index: index, Name: p.Name}
	var prevOpts *core.Options
	var prevPSS *shooting.PSS
	for ri, rung := range c.Ladder {
		opts := applyRung(p.Opts, rung)
		var o attemptOutcome
		if ri == 0 && first != nil {
			o = *first
		} else {
			if reusablePSS(prevOpts, opts, prevPSS) {
				opts.ReusePSS = prevPSS
				m.pssReuses.Inc()
			}
			outs, _ := runAttempt([]attemptLane{{p: p, opts: opts, ptTok: ptTok}}, ri, rung, c, psp)
			o = outs[0]
		}
		res.Attempts = append(res.Attempts, o.att)
		attempt(index, p.Name, o.att)
		if o.pss != nil && (res.PSS == nil || o.pss.Residual < res.PSS.Residual) {
			res.PSS = o.pss
		}
		if o.att.Err == nil {
			res.Result, res.Err = o.res, nil
			if o.res.PSS != nil {
				res.PSS = o.res.PSS
			}
			break
		}
		res.Err = o.att.Err
		if !Retryable(o.att.Err) {
			break
		}
		prevOpts, prevPSS = opts, o.pss
	}
	return res
}

// attemptLane is one point's share of an attempt: the point, the rung's
// prepared options (applyRung output plus any ReusePSS fast path; the
// Trace/Budget/Partial/Span fields are overwritten by runAttempt), and the
// point budget the attempt's own token hangs off.
type attemptLane struct {
	p     Point
	opts  *core.Options
	ptTok *budget.Token
	i     int // position in runUnit's unit; unused by runAttempt
}

// attemptOutcome is what one lane of an attempt hands back to its caller.
type attemptOutcome struct {
	att Attempt
	res *core.Result
	pss *shooting.PSS
}

// runAttempt is the attempt supervisor. It runs one ladder rung for one or
// more points in lockstep — a single point is a one-lane group — through
// core.CharacteriseBatch in its own goroutine, under a per-lane budget chain
// (point budget → attempt cancel/timeout), recovering panics and enforcing
// the deadline even against a model that never returns.
//
// With one lane, every failure is that point's attempt error: a panic
// becomes a PanicError, an injected fault an ordinary retryable failure.
// With several lanes, a failure of the lockstep batch itself (a panic, an
// injected attempt or kernel fault, an evaluator that cannot be built)
// teaches nothing about any one point, so runAttempt returns ok=false and
// the caller re-runs every lane as its own one-lane attempt. Budget trips
// are always per lane: the lane tokens are polled inside the kernels, so a
// cut-off point fails alone with a typed error.
func runAttempt(lanes []attemptLane, ri int, rung Rung, c *Config, psp *obs.Span) ([]attemptOutcome, bool) {
	m := sweepMetrics.Get()
	K := len(lanes)
	m.attempts.With(rung.Name).Add(int64(K))
	// With the flight recorder on, the attempt's whole span subtree (this
	// span plus the pipeline-stage spans under it via opts.Span) is teed into
	// a private ring so a crashing attempt can dump its final moments — even
	// when process-wide tracing is off and psp is nil.
	var ring *obs.RingEmitter
	var asp *obs.Span
	if c.FlightRecorder > 0 {
		ring = obs.NewRingEmitter(c.FlightRecorder)
		asp = obs.StartSpanOn(obs.Tee(psp.Emitter(), ring), psp, "sweep.attempt")
	} else {
		asp = obs.StartSpan(psp, "sweep.attempt")
	}
	asp.SetAttr("rung", rung.Name)
	asp.SetAttr("lanes", K)
	// finish ends the attempt span and attaches the ring to crash-class
	// failures — panic, budget/timeout cut-off, abandonment — never to
	// ordinary retryable failures, which would bloat journals. The span ends
	// first so the dump includes the attempt span itself.
	finish := func(outs []attemptOutcome) ([]attemptOutcome, bool) {
		var firstErr error
		for _, o := range outs {
			if o.att.Err != nil {
				firstErr = o.att.Err
				break
			}
		}
		asp.EndErr(firstErr)
		for i := range outs {
			att := &outs[i].att
			if ring != nil && (errors.Is(att.Err, ErrModelPanic) || budget.Is(att.Err)) {
				att.Flight = ring.Events()
				m.flightDumps.Inc()
			}
		}
		return outs, true
	}

	// Every lane hangs off the same batch budget and gets the same point and
	// attempt timeouts, so the first lane to trip speaks for all of them.
	toks := make([]*budget.Token, K)
	cancels := make([]func(), K)
	cancelAll := func() {
		for _, cancel := range cancels {
			cancel()
		}
	}
	defer cancelAll()
	var deadline time.Time
	for i, ln := range lanes {
		tok, cancel := budget.WithCancel(ln.ptTok)
		if c.AttemptTimeout > 0 {
			tok = budget.WithTimeout(tok, c.AttemptTimeout)
		}
		if dl, ok := tok.Deadline(); ok && (deadline.IsZero() || dl.Before(deadline)) {
			deadline = dl
		}
		toks[i], cancels[i] = tok, cancel
	}

	aStart := time.Now()
	type groupOutcome struct {
		outs     []attemptOutcome
		batchErr error
	}
	ch := make(chan groupOutcome, 1) // buffered: an abandoned goroutine can still exit
	go func() {
		outs := make([]attemptOutcome, K)
		partials := make([]core.Partial, K)
		var batchErr error
		defer func() {
			if rec := recover(); rec != nil {
				batchErr = &PanicError{Point: lanes[0].p.Name, Rung: rung.Name, Value: rec, Stack: debug.Stack()}
			}
			wall := time.Since(aStart)
			for i := range outs {
				o := &outs[i]
				o.att.Rung, o.att.RungName, o.att.Wall = ri, rung.Name, wall
				o.pss = partials[i].PSS
				if batchErr != nil {
					o.att.Err, o.res = batchErr, nil
				}
			}
			ch <- groupOutcome{outs, batchErr}
		}()
		// The attempt-level fault point fires inside the isolated goroutine so
		// ModePanic exercises the same recovery path a hostile model does.
		if err := faultinject.Fire(faultinject.SweepAttempt); err != nil {
			batchErr = fmt.Errorf("sweep: attempt %q on point %q: %w", rung.Name, lanes[0].p.Name, err)
			return
		}
		systems := make([]dynsys.System, K)
		points := make([]core.BatchPoint, K)
		for i, ln := range lanes {
			ln.opts.Trace = &outs[i].att.Trace
			ln.opts.Budget = toks[i]
			ln.opts.Partial = &partials[i]
			ln.opts.Span = asp
			systems[i] = ln.p.System
			points[i] = core.BatchPoint{Sys: ln.p.System, X0: ln.p.X0, TGuess: ln.p.TGuess, Opts: ln.opts}
		}
		be, err := newEvaluator(systems)
		if err != nil {
			batchErr = err
			return
		}
		results, laneErrs, err := core.CharacteriseBatch(be, points, nil)
		if err != nil {
			batchErr = err
			return
		}
		for i := range outs {
			outs[i].res, outs[i].att.Err = results[i], laneErrs[i]
		}
	}()

	// receive hands a finished attempt back: a lockstep batch that failed as
	// a whole is ended here and reported for per-lane fallback.
	receive := func(g groupOutcome) ([]attemptOutcome, bool) {
		if K > 1 && g.batchErr != nil {
			asp.SetAttr("fallback", true)
			asp.EndErr(g.batchErr)
			return nil, false
		}
		return finish(g.outs)
	}

	// Supervise: wait for the attempt, the earliest deadline in the chain,
	// or a batch cancellation.
	var timer <-chan time.Time
	if !deadline.IsZero() {
		tm := time.NewTimer(time.Until(deadline))
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case g := <-ch:
		return receive(g)
	case <-timer:
	case <-toks[0].Done():
	}

	// Budget tripped. A cooperative model sees the cancelled token within a
	// few integrator steps and returns with a typed error and a full trace;
	// give it AbandonGrace before declaring it unresponsive.
	cancelAll()
	grace := c.AbandonGrace
	if grace <= 0 {
		grace = defaultAbandonGrace
	}
	gt := time.NewTimer(grace)
	defer gt.Stop()
	select {
	case g := <-ch:
		return receive(g)
	case <-gt.C:
	}
	wall := time.Since(aStart)
	outs := make([]attemptOutcome, K)
	for i, ln := range lanes {
		cause := toks[i].Err()
		if cause == nil {
			cause = budget.ErrCanceled
		}
		m.abandoned.Inc()
		outs[i].att = Attempt{
			Rung:     ri,
			RungName: rung.Name,
			Wall:     wall,
			Err: fmt.Errorf("sweep: attempt %q on point %q abandoned after %v (model unresponsive to cancellation): %w",
				rung.Name, ln.p.Name, wall.Round(time.Millisecond), cause),
		}
	}
	return finish(outs)
}
