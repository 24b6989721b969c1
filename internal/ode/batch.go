package ode

// Batched structure-of-arrays (SoA) integration kernels. A batch evaluates K
// parameter variants ("lanes") of the same model in lockstep: every stage
// buffer is one contiguous [m×K]float64 with component i of lane k stored at
// index i*K+k (lane-minor), so each RK4 stage is a handful of flat loops over
// contiguous memory instead of K separate small-vector integrations. A
// batched Jacobian stores entry (i,j) of lane k at (i*n+j)*K+k.
//
// Lanes never mix arithmetically — every operation is lane-diagonal — so a
// lane whose state turns non-finite poisons only itself. The kernels exploit
// this: a failed lane is recorded in its laneErrs slot and the remaining
// lanes keep stepping. Per-lane arithmetic uses exactly the same expression
// and summation order as the scalar kernels (rk4Step, Variational,
// AdjointBackward), so a K-lane batch produces bit-identical per-lane
// results to K scalar integrations.
//
// Budget policy: the batch token is polled once per step (like the scalar
// kernels); per-lane tokens are polled every laneTokStride steps, because a
// token poll costs a time.Now when a deadline is armed and K polls per step
// would dominate small-n stepping.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/budget"
	"repro/internal/faultinject"
	"repro/internal/linalg"
)

// BatchFunc is the right-hand side of K lockstep lanes: dst and x are SoA
// [n×K] buffers, ts holds the per-lane evaluation time (autonomous systems
// ignore it).
type BatchFunc func(ts []float64, x, dst []float64)

// BatchJacFunc evaluates the per-lane Jacobians ∂f/∂x into jac, an SoA
// [n²×K] buffer with entry (i,j) of lane k at (i*n+j)*K+k.
type BatchJacFunc func(ts []float64, x, jac []float64)

// laneTokStride is how many steps pass between per-lane budget polls in the
// batched kernels.
const laneTokStride = 32

// BatchStepper carries the scratch buffers for lockstep RK4 steps over K
// lanes of an m-component state. Step performs no allocations.
type BatchStepper struct {
	m, lanes            int
	k1, k2, k3, k4, tmp []float64
	tb2, tb4            []float64 // per-lane stage times t+h/2, t+h
}

// NewBatchStepper returns a stepper for K lanes of m components each.
func NewBatchStepper(m, lanes int) *BatchStepper {
	if m <= 0 || lanes <= 0 {
		panic("ode: BatchStepper requires m > 0 and lanes > 0")
	}
	sz := m * lanes
	return &BatchStepper{
		m: m, lanes: lanes,
		k1:  make([]float64, sz),
		k2:  make([]float64, sz),
		k3:  make([]float64, sz),
		k4:  make([]float64, sz),
		tmp: make([]float64, sz),
		tb2: make([]float64, lanes),
		tb4: make([]float64, lanes),
	}
}

// Lanes returns the batch width the stepper was built for.
func (s *BatchStepper) Lanes() int { return s.lanes }

// axpyLanes writes dst = x + c·h_k·kk lane-wise: one flat bounds-checked
// inner loop per component row. The expression order matches the scalar
// rk4Step stage update bit for bit.
func axpyLanes(dst, x, kk, hs []float64, c float64, m int) {
	k := len(hs)
	for i := 0; i < m; i++ {
		base := i * k
		xv := x[base : base+k : base+k]
		kv := kk[base : base+k : base+k]
		dv := dst[base : base+k : base+k]
		for j, h := range hs {
			dv[j] = xv[j] + c*h*kv[j]
		}
	}
}

// Step advances all lanes by one RK4 step: lane k moves from ts0[k] by
// hs[k]. xout may alias x. len(hs) and len(ts0) must equal the stepper's
// lane count, len(x) its m·lanes.
func (s *BatchStepper) Step(f BatchFunc, ts0, hs, x, xout []float64) {
	m, lanes := s.m, s.lanes
	if len(hs) != lanes || len(ts0) != lanes || len(x) != m*lanes || len(xout) != m*lanes {
		panic("ode: BatchStepper.Step dimension mismatch")
	}
	for k, h := range hs {
		s.tb2[k] = ts0[k] + 0.5*h
		s.tb4[k] = ts0[k] + h
	}
	if lanes == 1 {
		s.step1(f, ts0, hs[0], x[:m], xout[:m])
		return
	}
	f(ts0, x, s.k1)
	axpyLanes(s.tmp, x, s.k1, hs, 0.5, m)
	f(s.tb2, s.tmp, s.k2)
	axpyLanes(s.tmp, x, s.k2, hs, 0.5, m)
	f(s.tb2, s.tmp, s.k3)
	axpyLanes(s.tmp, x, s.k3, hs, 1, m)
	f(s.tb4, s.tmp, s.k4)
	for i := 0; i < m; i++ {
		base := i * lanes
		xv := x[base : base+lanes : base+lanes]
		k1v := s.k1[base : base+lanes : base+lanes]
		k2v := s.k2[base : base+lanes : base+lanes]
		k3v := s.k3[base : base+lanes : base+lanes]
		k4v := s.k4[base : base+lanes : base+lanes]
		ov := xout[base : base+lanes : base+lanes]
		for j, h := range hs {
			ov[j] = xv[j] + h/6*(k1v[j]+2*k2v[j]+2*k3v[j]+k4v[j])
		}
	}
}

// step1 is Step for a single lane, whose SoA buffers are the scalar layout:
// the flat loops of rk4Step, with the same expressions.
func (s *BatchStepper) step1(f BatchFunc, ts0 []float64, h float64, x, xout []float64) {
	n := len(x)
	k1, k2, k3, k4, tmp := s.k1[:n], s.k2[:n], s.k3[:n], s.k4[:n], s.tmp[:n]
	xout = xout[:n]
	f(ts0, x, k1)
	for i, xi := range x {
		tmp[i] = xi + 0.5*h*k1[i]
	}
	f(s.tb2, tmp, k2)
	for i, xi := range x {
		tmp[i] = xi + 0.5*h*k2[i]
	}
	f(s.tb2, tmp, k3)
	for i, xi := range x {
		tmp[i] = xi + h*k3[i]
	}
	f(s.tb4, tmp, k4)
	for i, xi := range x {
		xout[i] = xi + h/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
}

// laneFinite reports whether lane k of the SoA buffer x (n components,
// lane-minor) is entirely finite.
func laneFinite(x []float64, n, lanes, k int) bool {
	for i := 0; i < n; i++ {
		v := x[i*lanes+k]
		if v-v != 0 {
			return false
		}
	}
	return true
}

// pollLanes checks the per-lane budget tokens of alive lanes, recording a
// wrapped error for any tripped lane and invoking onKill (may be nil) with
// its index. It returns the number of lanes killed.
func pollLanes(laneToks []*budget.Token, alive []bool, laneErrs []error, kernel string, s, nsteps int, tAt func(k int) float64, onKill func(k int)) int {
	if laneToks == nil {
		return 0
	}
	killed := 0
	for k, ok := range alive {
		if !ok || laneToks[k] == nil {
			continue
		}
		if err := laneToks[k].Err(); err != nil {
			alive[k] = false
			laneErrs[k] = fmt.Errorf("ode: %s lane %d at t=%g (step %d/%d): %w", kernel, k, tAt(k), s+1, nsteps, err)
			if onKill != nil {
				onKill(k)
			}
			killed++
		}
	}
	return killed
}

// BatchRK4 integrates K lanes with fixed-step RK4 in lockstep, lane k from
// t=0 to t1s[k] in nsteps steps. xs is the SoA [n×K] state, updated in
// place. The whole batch is cut off (batchErr non-nil) when tok trips or the
// ode.batch.kernel fault point fires; individual lanes fail independently
// (laneErrs[k] non-nil, other lanes unaffected) on a tripped per-lane token
// or a non-finite state. laneToks may be nil, as may its entries.
func BatchRK4(f BatchFunc, n, lanes int, t1s, xs []float64, nsteps int, tok *budget.Token, laneToks []*budget.Token) (laneErrs []error, batchErr error) {
	if nsteps <= 0 {
		panic("ode: BatchRK4 requires nsteps > 0")
	}
	if len(t1s) != lanes || len(xs) != n*lanes {
		panic("ode: BatchRK4 dimension mismatch")
	}
	if err := faultinject.Fire(faultinject.OdeBatchKernel); err != nil {
		return nil, fmt.Errorf("ode: batched RK4: %w", err)
	}
	st := NewBatchStepper(n, lanes)
	hs := make([]float64, lanes)
	ts0 := make([]float64, lanes)
	for k := range hs {
		hs[k] = t1s[k] / float64(nsteps)
	}
	laneErrs = make([]error, lanes)
	alive := make([]bool, lanes)
	for k := range alive {
		alive[k] = true
	}
	nalive := lanes
	m := odeMetrics.Get()
	laneSteps := int64(0)
	defer func() {
		m.rk4Steps.Add(laneSteps)
		m.batchLaneSteps.Add(laneSteps)
	}()
	for s := 0; s < nsteps && nalive > 0; s++ {
		for k := range ts0 {
			ts0[k] = float64(s) * hs[k]
		}
		if err := tok.Err(); err != nil {
			return laneErrs, fmt.Errorf("ode: batched RK4 at step %d/%d: %w", s+1, nsteps, err)
		}
		if s%laneTokStride == 0 {
			nalive -= pollLanes(laneToks, alive, laneErrs, "batched RK4", s, nsteps, func(k int) float64 { return ts0[k] }, nil)
		}
		st.Step(f, ts0, hs, xs, xs)
		for k, ok := range alive {
			if !ok {
				continue
			}
			laneSteps++
			if !laneFinite(xs, n, lanes, k) {
				alive[k] = false
				nalive--
				m.nonFinite.Inc()
				laneErrs[k] = fmt.Errorf("%w in batched RK4 lane %d at t=%g (step %d/%d)", ErrNonFinite, k, ts0[k], s+1, nsteps)
			}
		}
	}
	return laneErrs, nil
}

// BatchVariational integrates the joint system ẋ = f, Ẏ = A(x)·Y with
// Y(0) = I for K lanes in lockstep, lane k over [0, t1s[k]]. x0s is the SoA
// [n×K] initial state (not modified). Per-lane dense recording goes to
// recs[k] when non-nil (recs itself may be nil). On return, xTs[k] and
// phis[k] hold lane k's final state and state-transition matrix, or are nil
// with laneErrs[k] set when the lane failed. A non-nil batchErr (batch
// budget trip or injected batch fault) voids all lanes.
func BatchVariational(f BatchFunc, jac BatchJacFunc, n, lanes int, t1s, x0s []float64, nsteps int, recs []*Trajectory, tok *budget.Token, laneToks []*budget.Token) (xTs [][]float64, phis []*linalg.Matrix, laneErrs []error, batchErr error) {
	if nsteps <= 0 {
		panic("ode: BatchVariational requires nsteps > 0")
	}
	if len(t1s) != lanes || len(x0s) != n*lanes {
		panic("ode: BatchVariational dimension mismatch")
	}
	if err := faultinject.Fire(faultinject.OdeBatchKernel); err != nil {
		return nil, nil, nil, fmt.Errorf("ode: batched variational integration: %w", err)
	}
	mm := n + n*n
	z := make([]float64, mm*lanes)
	copy(z, x0s[:n*lanes])
	for i := 0; i < n; i++ {
		row := (n + i*n + i) * lanes
		for k := 0; k < lanes; k++ {
			z[row+k] = 1 // Y(0) = I
		}
	}
	jm := make([]float64, n*n*lanes)
	rhs := func(ts, zz, dst []float64) {
		f(ts, zz[:n*lanes], dst[:n*lanes])
		jac(ts, zz[:n*lanes], jm)
		// dY = A·Y lane-wise; accumulation order per lane matches the scalar
		// Variational rhs (l-sum from zero, ascending). One lane is the
		// scalar layout: a contiguous matmul accumulating in a register.
		if lanes == 1 {
			y, dy := zz[n:], dst[n:]
			for i := 0; i < n; i++ {
				ai := jm[i*n : i*n+n : i*n+n]
				for j := 0; j < n; j++ {
					s := 0.0
					for l, a := range ai {
						s += a * y[l*n+j]
					}
					dy[i*n+j] = s
				}
			}
			return
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				row := dst[(n+i*n+j)*lanes : (n+i*n+j)*lanes+lanes : (n+i*n+j)*lanes+lanes]
				for k := range row {
					row[k] = 0
				}
				for l := 0; l < n; l++ {
					av := jm[(i*n+l)*lanes : (i*n+l)*lanes+lanes : (i*n+l)*lanes+lanes]
					yv := zz[(n+l*n+j)*lanes : (n+l*n+j)*lanes+lanes : (n+l*n+j)*lanes+lanes]
					for k := range row {
						row[k] += av[k] * yv[k]
					}
				}
			}
		}
	}
	hs := make([]float64, lanes)
	ts0 := make([]float64, lanes)
	tsn := make([]float64, lanes)
	for k := range hs {
		hs[k] = t1s[k] / float64(nsteps)
	}
	laneErrs = make([]error, lanes)
	alive := make([]bool, lanes)
	for k := range alive {
		alive[k] = true
	}
	nalive := lanes
	recording := false
	for _, r := range recs {
		if r != nil {
			recording = true
		}
	}
	gather := func(src []float64, k int, dst []float64) {
		for i := 0; i < n; i++ {
			dst[i] = src[i*lanes+k]
		}
	}
	// A recorded lane's knots share one backing array, filled in step order,
	// instead of two small allocations per knot.
	var dz []float64
	var knots [][]float64
	record := func(ts []float64) {
		for k, r := range recs {
			if r == nil || !alive[k] {
				continue
			}
			off := len(knots[k])
			kn := knots[k][:off+2*n]
			gather(z, k, kn[off:off+n])
			gather(dz, k, kn[off+n:off+2*n])
			knots[k] = kn
			r.Points = append(r.Points, SamplePoint{T: ts[k], X: kn[off : off+n : off+n], DX: kn[off+n : off+2*n : off+2*n]})
		}
	}
	if recording {
		dz = make([]float64, mm*lanes)
		knots = make([][]float64, lanes)
		for k, r := range recs {
			if r != nil {
				knots[k] = make([]float64, 0, 2*n*(nsteps+1))
				r.Points = slices.Grow(r.Points, nsteps+1)
			}
		}
		rhs(ts0, z, dz) // ts0 is still all zeros = t0
		record(ts0)
	}
	st := NewBatchStepper(mm, lanes)
	m := odeMetrics.Get()
	laneSteps := int64(0)
	defer func() {
		m.varSteps.Add(laneSteps)
		m.batchLaneSteps.Add(laneSteps)
	}()
	for s := 0; s < nsteps && nalive > 0; s++ {
		for k := range ts0 {
			ts0[k] = float64(s) * hs[k]
		}
		if err := tok.Err(); err != nil {
			return nil, nil, laneErrs, fmt.Errorf("ode: batched variational integration at step %d/%d: %w", s+1, nsteps, err)
		}
		if s%laneTokStride == 0 {
			nalive -= pollLanes(laneToks, alive, laneErrs, "batched variational integration", s, nsteps, func(k int) float64 { return ts0[k] }, nil)
		}
		st.Step(rhs, ts0, hs, z, z)
		for k, ok := range alive {
			if !ok {
				continue
			}
			laneSteps++
			if !laneFinite(z, mm, lanes, k) {
				alive[k] = false
				nalive--
				m.nonFinite.Inc()
				laneErrs[k] = fmt.Errorf("%w in batched variational integration lane %d at t=%g (step %d/%d)", ErrNonFinite, k, ts0[k], s+1, nsteps)
			}
		}
		if recording && nalive > 0 {
			for k := range tsn {
				tsn[k] = ts0[k] + hs[k]
			}
			rhs(tsn, z, dz)
			record(tsn)
		}
	}
	xTs = make([][]float64, lanes)
	phis = make([]*linalg.Matrix, lanes)
	for k := 0; k < lanes; k++ {
		if !alive[k] {
			continue
		}
		xf := make([]float64, n)
		gather(z, k, xf)
		xTs[k] = xf
		phi := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				phi.Data[i*n+j] = z[(n+i*n+j)*lanes+k]
			}
		}
		phis[k] = phi
	}
	return xTs, phis, laneErrs, nil
}

// Locator is an O(1) segment finder over a (near-)uniform trajectory,
// replacing the per-call binary search of Trajectory.At in hot interpolation
// loops (the batched adjoint right-hand side, the c quadrature, the adjoint
// renormalisation pass). It locates exactly the same bracketing segment as
// the binary search and runs the same Hermite arithmetic, so its results are
// bit-identical; non-uniform trajectories fall back to Trajectory.At. Build
// one outside the loop: the constructor scans the knots once.
type Locator struct {
	tr      *Trajectory
	first   float64
	h       float64
	uniform bool
}

func NewLocator(tr *Trajectory) Locator {
	lc := Locator{tr: tr}
	pts := tr.Points
	if len(pts) < 2 {
		return lc
	}
	first := pts[0].T
	h := (pts[len(pts)-1].T - first) / float64(len(pts)-1)
	if h <= 0 || h-h != 0 {
		return lc
	}
	// Fixed-step recordings accumulate knot times as s·h + h, which drifts
	// from first + i·h by at most a few thousand ulps — far inside this
	// tolerance. Anything worse (adaptive output, hand-built knots) keeps
	// the binary-search path.
	tol := 1e-6 * h
	for i := range pts {
		if math.Abs(pts[i].T-(first+float64(i)*h)) > tol {
			return lc
		}
	}
	lc.first, lc.h, lc.uniform = first, h, true
	return lc
}

// At evaluates the trajectory at t into dst, bit-identical to tr.At(t, dst).
func (lc *Locator) At(t float64, dst []float64) {
	if !lc.uniform {
		lc.tr.At(t, dst)
		return
	}
	pts := lc.tr.Points
	if t <= pts[0].T {
		copy(dst, pts[0].X)
		return
	}
	if t >= pts[len(pts)-1].T {
		copy(dst, pts[len(pts)-1].X)
		return
	}
	lo := int((t - lc.first) / lc.h)
	if lo < 0 {
		lo = 0
	}
	if lo > len(pts)-2 {
		lo = len(pts) - 2
	}
	for lo < len(pts)-2 && pts[lo+1].T <= t {
		lo++
	}
	for lo > 0 && pts[lo].T > t {
		lo--
	}
	a, b := pts[lo], pts[lo+1]
	h := b.T - a.T
	s := (t - a.T) / h
	s2 := s * s
	s3 := s2 * s
	h00 := 2*s3 - 3*s2 + 1
	h10 := s3 - 2*s2 + s
	h01 := -2*s3 + 3*s2
	h11 := s3 - s2
	for i := range dst {
		dst[i] = h00*a.X[i] + h10*h*a.DX[i] + h01*b.X[i] + h11*h*b.DX[i]
	}
}

// BatchAdjointBackward integrates the adjoint system ẏ = −Aᵀ(t)y backwards
// from t1s[k] to 0 for K lanes in lockstep, each along its own stored orbit
// orbits[k] with terminal condition yTs[k]. It returns per-lane adjoint
// trajectories sampled on each lane's uniform grid, the per-lane completed
// step counts, and per-lane errors; batchErr voids the whole batch, but the
// step counts still report how far each lane got before a batch budget trip.
func BatchAdjointBackward(jac BatchJacFunc, orbits []*Trajectory, t1s []float64, yTs [][]float64, nsteps int, tok *budget.Token, laneToks []*budget.Token) (outs []*Trajectory, stepsDone []int, laneErrs []error, batchErr error) {
	if nsteps <= 0 {
		panic("ode: BatchAdjointBackward requires nsteps > 0")
	}
	lanes := len(orbits)
	if len(t1s) != lanes || len(yTs) != lanes || lanes == 0 {
		panic("ode: BatchAdjointBackward dimension mismatch")
	}
	n := len(yTs[0])
	if err := faultinject.Fire(faultinject.OdeBatchKernel); err != nil {
		return nil, nil, nil, fmt.Errorf("ode: batched backward adjoint: %w", err)
	}
	locs := make([]Locator, lanes)
	for k := range locs {
		locs[k] = NewLocator(orbits[k])
	}
	jm := make([]float64, n*n*lanes)
	xbuf := make([]float64, n*lanes)
	xg := make([]float64, n)
	rhs := func(ts, y, dst []float64) {
		for k := 0; k < lanes; k++ {
			locs[k].At(ts[k], xg)
			for i := 0; i < n; i++ {
				xbuf[i*lanes+k] = xg[i]
			}
		}
		jac(ts, xbuf, jm)
		// dst = −Aᵀy lane-wise; per-lane accumulation order matches the
		// scalar AdjointBackward rhs. One lane accumulates in a register.
		if lanes == 1 {
			for i := 0; i < n; i++ {
				s := 0.0
				for l, yl := range y[:n] {
					s += jm[l*n+i] * yl
				}
				dst[i] = -s
			}
			return
		}
		for i := 0; i < n; i++ {
			row := dst[i*lanes : i*lanes+lanes : i*lanes+lanes]
			for k := range row {
				row[k] = 0
			}
			for l := 0; l < n; l++ {
				av := jm[(l*n+i)*lanes : (l*n+i)*lanes+lanes : (l*n+i)*lanes+lanes]
				yv := y[l*lanes : l*lanes+lanes : l*lanes+lanes]
				for k := range row {
					row[k] += av[k] * yv[k]
				}
			}
			for k := range row {
				row[k] = -row[k]
			}
		}
	}
	y := make([]float64, n*lanes)
	for k := 0; k < lanes; k++ {
		if len(yTs[k]) != n {
			panic("ode: BatchAdjointBackward yT dimension mismatch")
		}
		for i := 0; i < n; i++ {
			y[i*lanes+k] = yTs[k][i]
		}
	}
	hs := make([]float64, lanes)
	hneg := make([]float64, lanes)
	ts0 := make([]float64, lanes)
	tsm := make([]float64, lanes)
	for k := range hs {
		hs[k] = t1s[k] / float64(nsteps)
		hneg[k] = -hs[k]
	}
	// Per-lane sample storage, written back-to-front; trajectories are
	// assembled from these backings without re-copying.
	tsStore := make([][]float64, lanes)
	ysStore := make([][]float64, lanes)
	dysStore := make([][]float64, lanes)
	for k := range tsStore {
		tsStore[k] = make([]float64, nsteps+1)
		ysStore[k] = make([]float64, (nsteps+1)*n)
		dysStore[k] = make([]float64, (nsteps+1)*n)
	}
	dy := make([]float64, n*lanes)
	laneErrs = make([]error, lanes)
	stepsDone = make([]int, lanes)
	alive := make([]bool, lanes)
	for k := range alive {
		alive[k] = true
	}
	nalive := lanes
	store := func(idx int, ts []float64) {
		rhs(ts, y, dy)
		for k, ok := range alive {
			if !ok {
				continue
			}
			tsStore[k][idx] = ts[k]
			for i := 0; i < n; i++ {
				ysStore[k][idx*n+i] = y[i*lanes+k]
				dysStore[k][idx*n+i] = dy[i*lanes+k]
			}
		}
	}
	copy(ts0, t1s)
	store(nsteps, ts0)
	st := NewBatchStepper(n, lanes)
	m := odeMetrics.Get()
	laneSteps := int64(0)
	defer func() {
		m.adjSteps.Add(laneSteps)
		m.batchLaneSteps.Add(laneSteps)
	}()
	for s := 0; s < nsteps && nalive > 0; s++ {
		for k := range ts0 {
			ts0[k] = t1s[k] - float64(s)*hs[k]
		}
		if err := tok.Err(); err != nil {
			for k, ok := range alive {
				if ok {
					stepsDone[k] = s
				}
			}
			return nil, stepsDone, laneErrs, fmt.Errorf("ode: batched backward adjoint at step %d/%d: %w", s+1, nsteps, err)
		}
		if s%laneTokStride == 0 {
			nalive -= pollLanes(laneToks, alive, laneErrs, "batched backward adjoint", s, nsteps, func(k int) float64 { return ts0[k] }, func(k int) { stepsDone[k] = s })
		}
		st.Step(rhs, ts0, hneg, y, y)
		for k, ok := range alive {
			if !ok {
				continue
			}
			laneSteps++
			if !laneFinite(y, n, lanes, k) {
				alive[k] = false
				nalive--
				m.nonFinite.Inc()
				stepsDone[k] = s + 1
				laneErrs[k] = fmt.Errorf("%w in batched backward adjoint lane %d at t=%g (step %d/%d)", ErrNonFinite, k, ts0[k], s+1, nsteps)
			}
		}
		if nalive > 0 {
			for k := range tsm {
				tsm[k] = ts0[k] - hs[k]
			}
			store(nsteps-1-s, tsm)
		}
	}
	outs = make([]*Trajectory, lanes)
	for k := 0; k < lanes; k++ {
		if !alive[k] {
			continue
		}
		stepsDone[k] = nsteps
		pts := make([]SamplePoint, nsteps+1)
		for i := 0; i <= nsteps; i++ {
			pts[i] = SamplePoint{
				T:  tsStore[k][i],
				X:  ysStore[k][i*n : (i+1)*n : (i+1)*n],
				DX: dysStore[k][i*n : (i+1)*n : (i+1)*n],
			}
		}
		outs[k] = &Trajectory{Points: pts}
	}
	return outs, stepsDone, laneErrs, nil
}
