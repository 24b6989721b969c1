package dynsys

import "fmt"

// BatchEvaluator evaluates K parameter variants ("lanes") of one model
// family in lockstep over structure-of-arrays buffers: component i of lane k
// lives at index i*K+k of an [n×K] buffer, and Jacobian entry (i,j) of lane
// k at (i*n+j)*K+k of an [n²×K] buffer. Implementations must produce, for
// every lane, bit-identical values to the corresponding scalar System —
// batching is a layout change, never a numerical one.
type BatchEvaluator interface {
	// Dim returns the per-lane state dimension n.
	Dim() int
	// Lanes returns the batch width K.
	Lanes() int
	// EvalBatch writes f(x_k) for every lane into dst (SoA [n×K]).
	EvalBatch(x, dst []float64)
	// JacobianBatch writes ∂f/∂x at x_k for every lane into jac (SoA [n²×K]).
	JacobianBatch(x, jac []float64)
}

// LaneBatch adapts K scalar Systems into a BatchEvaluator by
// gathering each lane into contiguous scratch, calling the scalar model, and
// scattering the result back. It is the universal fallback when no native
// SoA implementation of a model exists: per-lane results are trivially
// bit-identical to the scalar path, at the cost of 2·n·K extra moves per
// evaluation. Not safe for concurrent use (shared scratch).
type LaneBatch struct {
	systems []System
	n       int
	xk, fk  []float64
	jk      []float64
}

// NewLaneBatch builds a LaneBatch over the given systems, which must all
// share one state dimension.
func NewLaneBatch(systems []System) (*LaneBatch, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("dynsys: LaneBatch of zero systems")
	}
	n := systems[0].Dim()
	for i, s := range systems {
		if s.Dim() != n {
			return nil, fmt.Errorf("dynsys: LaneBatch dimension mismatch: system 0 has n=%d, system %d has n=%d", n, i, s.Dim())
		}
	}
	return &LaneBatch{
		systems: systems,
		n:       n,
		xk:      make([]float64, n),
		fk:      make([]float64, n),
		jk:      make([]float64, n*n),
	}, nil
}

// Dim implements BatchEvaluator.
func (b *LaneBatch) Dim() int { return b.n }

// Lanes implements BatchEvaluator.
func (b *LaneBatch) Lanes() int { return len(b.systems) }

// EvalBatch implements BatchEvaluator.
func (b *LaneBatch) EvalBatch(x, dst []float64) {
	n, lanes := b.n, len(b.systems)
	for k, s := range b.systems {
		for i := 0; i < n; i++ {
			b.xk[i] = x[i*lanes+k]
		}
		s.Eval(b.xk, b.fk)
		for i := 0; i < n; i++ {
			dst[i*lanes+k] = b.fk[i]
		}
	}
}

// JacobianBatch implements BatchEvaluator.
func (b *LaneBatch) JacobianBatch(x, jac []float64) {
	n, lanes := b.n, len(b.systems)
	for k, s := range b.systems {
		for i := 0; i < n; i++ {
			b.xk[i] = x[i*lanes+k]
		}
		s.Jacobian(b.xk, b.jk)
		for i := 0; i < n*n; i++ {
			jac[i*lanes+k] = b.jk[i]
		}
	}
}

// BatchFuncs returns be's evaluations in the shape of the ode batch kernels'
// right-hand sides; the per-lane times are ignored, since systems are
// autonomous. A one-lane LaneBatch holds its lane in the system's own
// layout, so its functions call the system directly, without the gather,
// the scatter and one dispatch.
func BatchFuncs(be BatchEvaluator) (eval, jac func(ts, x, dst []float64)) {
	if lb, ok := be.(*LaneBatch); ok && len(lb.systems) == 1 {
		sys := lb.systems[0]
		return func(_, x, dst []float64) { sys.Eval(x, dst) }, func(_, x, dst []float64) { sys.Jacobian(x, dst) }
	}
	return func(_, x, dst []float64) { be.EvalBatch(x, dst) }, func(_, x, dst []float64) { be.JacobianBatch(x, dst) }
}
