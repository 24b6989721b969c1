package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// postJSONAs is postJSON with a tenant header.
func postJSONAs(t *testing.T, url, tenant string, v any) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp, st
}

// fakeClock injects a deterministic clock into the admission table.
type fakeClock struct {
	mu  sync.Mutex
	cur time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.cur = c.cur.Add(d)
	c.mu.Unlock()
}

// TestTenantRateQuota drives the token bucket over its boundaries with an
// injected clock: the burst is honoured exactly, the 429 carries the
// bucket-deficit Retry-After, sleeping that long re-admits, and another
// tenant's bucket is untouched throughout.
func TestTenantRateQuota(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{
		Workers:        2,
		TenantDefaults: TenantConfig{SubmitRate: 1, SubmitBurst: 2},
	})
	defer s.Shutdown(context.Background())
	clk := &fakeClock{cur: time.Unix(1_700_000_000, 0)}
	s.tenants.now = clk.now
	ts := httptest.NewServer(s)
	defer ts.Close()

	submit := func(tenant, name string) (*http.Response, JobStatus) {
		return postJSONAs(t, ts.URL+"/v1/characterise", tenant, CharacteriseRequest{PointSpec: hopfSpec(name, 7e3)})
	}

	// Burst of 2 lands back-to-back; the third is over rate.
	var ids []string
	for i := 0; i < 2; i++ {
		resp, st := submit("alpha", fmt.Sprintf("rate%d", i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("burst submit %d: %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	resp, _ := submit("alpha", "rate2")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate submit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (whole empty bucket at 1/s)", ra)
	}

	// Another tenant is not collateral damage.
	if resp, st := submit("beta", "rate0"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant during alpha's 429s: %d, want 202", resp.StatusCode)
	} else {
		ids = append(ids, st.ID)
	}

	// Sleeping the advertised Retry-After is sufficient.
	clk.advance(time.Second)
	resp, st := submit("alpha", "rate3")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after Retry-After elapsed: %d, want 202", resp.StatusCode)
	}
	ids = append(ids, st.ID)

	// Refill never overshoots the burst: a long idle stretch buys exactly
	// SubmitBurst submissions, not one per idle second.
	clk.advance(time.Hour)
	for i := 0; i < 2; i++ {
		resp, st := submit("alpha", fmt.Sprintf("rate%d", 4+i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-idle submit %d: %d, want 202", i, resp.StatusCode)
		}
		ids = append(ids, st.ID)
	}
	if resp, _ := submit("alpha", "rate6"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst overshoot after idle: %d, want 429 (bucket must cap at burst)", resp.StatusCode)
	}

	snap := reg.Snapshot()
	if got := snap.Counter("pn_serve_rejected_total", "tenant_rate"); got != 2 {
		t.Fatalf("rejected{tenant_rate} = %d, want 2", got)
	}
	if got := snap.Counter("pn_serve_tenant_rejected_total", "alpha"); got != 2 {
		t.Fatalf("tenant_rejected{alpha} = %d, want 2", got)
	}
	if got := snap.Counter("pn_serve_tenant_rejected_total", "beta"); got != 0 {
		t.Fatalf("tenant_rejected{beta} = %d, want 0", got)
	}
	for _, id := range ids {
		waitState(t, ts.URL, id, terminal)
	}
}

// TestTenantInFlightCap: a tenant at its in-flight ceiling gets 429s until one
// of its jobs settles, and an invalid tenant name never reaches admission.
func TestTenantInFlightCap(t *testing.T) {
	s := New(Config{
		Workers: 1,
		Tenants: map[string]TenantConfig{"capped": {MaxInFlight: 1}},
	})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, st := postJSONAs(t, ts.URL+"/v1/sweep", "capped", slowSweep(4))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	resp, _ = postJSONAs(t, ts.URL+"/v1/sweep", "capped", slowSweep(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over in-flight cap: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("in-flight 429 without Retry-After")
	}

	// The cap is per tenant, not global.
	if resp, st2 := postJSONAs(t, ts.URL+"/v1/characterise", "roomy", CharacteriseRequest{PointSpec: hopfSpec("cap0", 8e3)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("uncapped tenant: %d, want 202", resp.StatusCode)
	} else {
		defer waitState(t, ts.URL, st2.ID, terminal)
	}

	if waitState(t, ts.URL, st.ID, terminal).State != StateDone {
		t.Fatal("capped tenant's job failed")
	}
	resp, st3 := postJSONAs(t, ts.URL+"/v1/sweep", "capped", slowSweep(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after slot freed: %d, want 202", resp.StatusCode)
	}
	waitState(t, ts.URL, st3.ID, terminal)

	// A hostile tenant name is a 400, before any quota state is minted.
	resp, _ = postJSONAs(t, ts.URL+"/v1/characterise", "../escape", CharacteriseRequest{PointSpec: hopfSpec("cap1", 8e3)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("hostile tenant name: %d, want 400", resp.StatusCode)
	}
}

// TestTenantFairness is the starvation test the scheduler exists for: with a
// single worker already deep in tenant A's batch sweep, tenant B's interactive
// characterise must be granted at the next lane boundary and finish while A's
// sweep is still running — bounded wait, not FIFO-behind-the-backlog.
func TestTenantFairness(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	s := New(Config{Workers: 1, LaneGrant: 2})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Tenant A floods the single worker with a slow batch sweep.
	respA, batch := postJSONAs(t, ts.URL+"/v1/sweep", "batch-tenant", slowSweep(30))
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", respA.StatusCode)
	}
	waitState(t, ts.URL, batch.ID, func(s JobStatus) bool { return s.State == StateRunning })

	// Tenant B asks one interactive question.
	respB, live := postJSONAs(t, ts.URL+"/v1/characterise", "live-tenant", CharacteriseRequest{PointSpec: hopfSpec("urgent", 9e3)})
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit: %d", respB.StatusCode)
	}
	liveDone := waitState(t, ts.URL, live.ID, terminal)
	if liveDone.State != StateDone {
		t.Fatalf("interactive job: %+v", liveDone)
	}

	// The moment B's answer arrived, A's sweep must still be in flight: B did
	// not wait out the batch backlog.
	batchNow := getStatus(t, ts.URL, batch.ID, false)
	if terminal(batchNow) {
		t.Fatalf("batch sweep already %q when the interactive job finished — no preemption happened", batchNow.State)
	}
	if batchNow.DonePoints >= 30 {
		t.Fatalf("batch at %d/30 points — interactive job waited out the whole sweep", batchNow.DonePoints)
	}

	// The interactive tenant took exactly one grant.
	if got := reg.Snapshot().Counter("pn_serve_tenant_grants_total", "live-tenant"); got != 1 {
		t.Fatalf("grants{live-tenant} = %d, want 1", got)
	}

	// And the preempted sweep still finishes intact.
	batchDone := waitState(t, ts.URL, batch.ID, terminal)
	if batchDone.State != StateDone || batchDone.DonePoints != 30 {
		t.Fatalf("batch sweep after preemption: %+v", batchDone)
	}
	// The batch tenant took many grants (one per chunk). Counted only once the
	// sweep is done: right after the interactive job ends, the sweep's next
	// grant may not have happened yet.
	if got := reg.Snapshot().Counter("pn_serve_tenant_grants_total", "batch-tenant"); got < 2 {
		t.Fatalf("grants{batch-tenant} = %d, want >= 2 (chunked execution)", got)
	}
}

// TestSchedLanesAndWeights unit-tests the scheduler's grant order: strict
// interactive-lane priority, weighted interleave within a lane with the
// deterministic name tie-break, the intake bound, and requeue/close
// semantics.
func TestSchedLanesAndWeights(t *testing.T) {
	mk := func(kind, tenant string) *job {
		return &job{id: kind + "-" + tenant, kind: kind, tenant: tenant}
	}

	// Lane priority: a batch backlog never delays an interactive grant.
	s := newSched(0)
	a1, a2 := mk("sweep", "a"), mk("sweep", "a")
	b1 := mk("characterise", "b")
	for _, j := range []*job{a1, a2} {
		if err := s.submit(j, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.submit(b1, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.next(); got != b1 {
		t.Fatalf("first grant %v, want the interactive job", got.id)
	}
	if got := s.next(); got != a1 {
		t.Fatalf("second grant %v, want the first batch job", got.id)
	}
	// A started job re-enters its lane without counting against intake.
	if s.depth() != 1 {
		t.Fatalf("depth = %d, want 1 (only the ungranted job)", s.depth())
	}
	s.requeue(a1)
	if s.depth() != 1 {
		t.Fatalf("depth after requeue = %d, want 1 (granted jobs are not intake)", s.depth())
	}
	if got := s.next(); got != a2 {
		t.Fatalf("third grant %v, want a2 (FIFO within tenant)", got.id)
	}
	if got := s.next(); got != a1 {
		t.Fatalf("fourth grant %v, want the requeued a1", got.id)
	}

	// Weighted interleave: weight 2 takes two grants per weight-1 grant, with
	// equal virtual times broken by tenant name.
	s = newSched(0)
	var w, v []*job
	for i := 0; i < 4; i++ {
		w = append(w, mk("sweep", "w"))
		v = append(v, mk("sweep", "v"))
	}
	for _, j := range w {
		if err := s.submit(j, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range v {
		if err := s.submit(j, 1); err != nil {
			t.Fatal(err)
		}
	}
	want := []*job{v[0], w[0], w[1], v[1], w[2], w[3], v[2], v[3]}
	for i, wj := range want {
		if got := s.next(); got != wj {
			t.Fatalf("grant %d went to %s, want %s", i, got.tenant, wj.tenant)
		}
	}

	// Intake bound and closure.
	s = newSched(2)
	if err := s.submit(mk("sweep", "x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(mk("sweep", "x"), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(mk("sweep", "x"), 1); err != errSchedFull {
		t.Fatalf("submit over bound: %v, want errSchedFull", err)
	}
	// Recovered jobs bypass the bound but not closure.
	if err := s.resume(mk("sweep", "y"), 1); err != nil {
		t.Fatalf("resume over bound: %v, want nil", err)
	}
	s.close()
	if err := s.submit(mk("sweep", "x"), 1); err != errSchedClosed {
		t.Fatalf("submit after close: %v, want errSchedClosed", err)
	}
	if err := s.resume(mk("sweep", "y"), 1); err != errSchedClosed {
		t.Fatalf("resume after close: %v, want errSchedClosed", err)
	}
	for i := 0; i < 3; i++ {
		if s.next() == nil {
			t.Fatalf("drain grant %d: scheduler gave up before empty", i)
		}
	}
	if got := s.next(); got != nil {
		t.Fatalf("next on closed+empty = %v, want nil", got.id)
	}
}
