package sweep

import (
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/obs"
)

// A lockstep lane cut off by its attempt timeout carries the flight dump a
// lone point would: lanes and single points share one attempt supervisor.
func TestFlightRecorderOnBatchedTimeout(t *testing.T) {
	results := Run(hopfGrid(2), &Config{
		FlightRecorder: 32,
		AttemptTimeout: time.Nanosecond,
		BatchLanes:     2,
	})
	for _, r := range results {
		if !errors.Is(r.Err, budget.ErrBudgetExceeded) {
			t.Fatalf("%s: want wrapped ErrBudgetExceeded, got %v", r.Name, r.Err)
		}
		att := lastAttempt(t, r)
		if len(att.Flight) == 0 {
			t.Fatalf("%s: timed-out batched attempt carried no flight dump", r.Name)
		}
		if !hasSpan(att.Flight, "sweep.attempt") {
			t.Fatalf("%s: dump misses the attempt span: %+v", r.Name, att.Flight)
		}
	}
}

// A traced lockstep group emits the single-point span set once, with the
// batch width as an attribute and one quadrature span per lane.
func TestBatchedSpanTreeIsOnePipeline(t *testing.T) {
	ring := obs.NewRingEmitter(256)
	obs.SetEmitter(ring)
	defer obs.SetEmitter(nil)
	for i, r := range Run(hopfGrid(3), &Config{Workers: 1, BatchLanes: 3}) {
		if !r.OK() {
			t.Fatalf("point %d failed: %v", i, r.Err)
		}
	}
	obs.SetEmitter(nil)

	byName := map[string][]obs.Event{}
	byID := map[uint64]obs.Event{}
	for _, ev := range ring.Events() {
		byName[ev.Name] = append(byName[ev.Name], ev)
		byID[ev.Span] = ev
	}
	for name, want := range map[string]int{
		"sweep.batch": 1, "sweep.attempt": 1, "core.Characterise": 1,
		"shooting.Find": 1, "floquet.Analyze": 1, "quadrature": 3,
	} {
		if got := len(byName[name]); got != want {
			t.Fatalf("%d %q spans, want %d", got, name, want)
		}
	}
	attempt := byName["sweep.attempt"][0]
	if byID[attempt.Parent].Name != "sweep.batch" || attempt.Attrs["lanes"] != 3 {
		t.Fatalf("attempt span %+v, want lanes=3 under sweep.batch", attempt)
	}
	char := byName["core.Characterise"][0]
	if byID[char.Parent].Name != "sweep.attempt" {
		t.Fatalf("core.Characterise parented under %q", byID[char.Parent].Name)
	}
	for _, q := range byName["quadrature"] {
		if q.Parent != char.Span {
			t.Fatalf("quadrature span not under the batch's core.Characterise: %+v", q)
		}
	}
}
