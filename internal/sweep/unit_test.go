package sweep

import (
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/shooting"
)

// A unit that reaches a worker after a deadline-only budget expired never
// starts: it counts as skipped, as the units the feeder never sent do, and
// not as failed. The slow van der Pol point holds the one worker past the
// deadline, so the Hopf point is dequeued only after the budget tripped.
func TestUnitDequeuedAfterBudgetTripIsSkipped(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	pts := []Point{{
		Name:   "vdp-slow",
		System: &osc.VanDerPol{Mu: 10, Sigma: 0.01},
		X0:     []float64{2, 0},
		TGuess: 19,
		Opts:   &core.Options{Shooting: &shooting.Options{StepsPerPeriod: 200000}},
	}, hopfGrid(1)[0]}
	results := Run(pts, &Config{Workers: 1, Budget: budget.WithTimeout(nil, 50*time.Millisecond)})
	for i, r := range results {
		if !errors.Is(r.Err, budget.ErrBudgetExceeded) {
			t.Fatalf("point %d: want wrapped ErrBudgetExceeded, got %v", i, r.Err)
		}
	}
	if n := len(results[1].Attempts); n != 0 {
		t.Fatalf("skipped point ran %d attempts", n)
	}
	s := reg.Snapshot()
	if got := s.Counter("pn_sweep_points_total", "skipped"); got != 1 {
		t.Fatalf("skipped = %d, want 1", got)
	}
	if got := s.Counter("pn_sweep_points_total", "failed"); got != 1 {
		t.Fatalf("failed = %d, want 1", got)
	}
}
