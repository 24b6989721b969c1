package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/budget"
	"repro/internal/dynsys"
	"repro/internal/floquet"
	"repro/internal/obs"
	"repro/internal/osc"
)

// A whole-batch budget trip mid-adjoint voids the batch, but every lane's
// trace must still show the complete shooting stage and how far its adjoint
// got — the K=2 twin of TestDegradedTraceOnMidFloquetBudgetTrip.
func TestBatchTripKeepsPartialAdjointTrace(t *testing.T) {
	tok, cancel := budget.WithCancel(nil)
	defer cancel()
	const configured = 4000
	var parts [2]Partial
	var trs [2]Trace
	systems := make([]dynsys.System, 2)
	points := make([]BatchPoint, 2)
	for k, omega := range []float64{2 * math.Pi, 3 * math.Pi} {
		h := &osc.Hopf{Lambda: 1, Omega: omega, Sigma: 0.02}
		sys := &tripAfterShooting{System: h, part: &parts[k], after: 400, cancel: cancel}
		systems[k] = sys
		points[k] = BatchPoint{Sys: sys, X0: []float64{1, 0.1}, TGuess: 1.05 * h.Period(), Opts: &Options{
			Floquet: &floquet.Options{Steps: configured},
			Trace:   &trs[k],
			Partial: &parts[k],
		}}
	}
	be, err := dynsys.NewLaneBatch(systems)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := CharacteriseBatch(be, points, tok); !budget.Is(err) {
		t.Fatalf("got batch error %v, want a budget error", err)
	}
	for k, tr := range trs {
		if tr.Shooting.Iters == 0 || parts[k].PSS == nil {
			t.Fatalf("lane %d: shooting trace or PSS lost: %+v", k, tr.Shooting)
		}
		if tr.Floquet.Steps <= 0 || tr.Floquet.Steps >= configured {
			t.Fatalf("lane %d: Floquet.Steps = %d, want partial in (0, %d)", k, tr.Floquet.Steps, configured)
		}
		if tr.Floquet.AdjointWall <= 0 || tr.Floquet.Wall <= 0 {
			t.Fatalf("lane %d: partial adjoint wall time not recorded: %+v", k, tr.Floquet)
		}
	}
}

// A lane carrying a reusable PSS skips shooting but still joins the
// lockstep Floquet stage: both lanes return exactly their one-lane results,
// and only the other lane is shot.
func TestCharacteriseBatchReusePSSLane(t *testing.T) {
	h0 := &osc.Hopf{Lambda: 1, Omega: 2 * math.Pi, Sigma: 0.02}
	h1 := &osc.Hopf{Lambda: 1, Omega: 3 * math.Pi, Sigma: 0.02}
	x0 := []float64{1, 0.1}
	want0, err := Characterise(h0, x0, 1.05*h0.Period(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := Characterise(h1, x0, 1.05*h1.Period(), nil)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)
	be, err := dynsys.NewLaneBatch([]dynsys.System{h0, h1})
	if err != nil {
		t.Fatal(err)
	}
	var part Partial
	got, laneErrs, err := CharacteriseBatch(be, []BatchPoint{
		{Sys: h0, X0: x0, TGuess: 1.05 * h0.Period(), Opts: &Options{ReusePSS: want0.PSS, Partial: &part}},
		{Sys: h1, X0: x0, TGuess: 1.05 * h1.Period()},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []*Result{want0, want1} {
		if laneErrs[k] != nil {
			t.Fatalf("lane %d: %v", k, laneErrs[k])
		}
		a, _ := json.Marshal(got[k])
		b, _ := json.Marshal(want)
		if string(a) != string(b) {
			t.Fatalf("lane %d differs from its one-lane characterisation", k)
		}
	}
	if got[0].PSS != want0.PSS || part.PSS != want0.PSS {
		t.Fatal("reused lane does not carry the supplied PSS")
	}
	if n := reg.Snapshot().Counter("pn_shooting_finds_total", ""); n != 1 {
		t.Fatalf("pn_shooting_finds_total = %d, want 1 (the reused lane is not shot)", n)
	}
}
