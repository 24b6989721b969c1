package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestJournalLeasedIdempotencyAcrossRestart resubmits a finished leased sweep
// under its Idempotency-Key after a restart: the recovered job must carry the
// same fingerprint as the original submission, so the replay answers 200
// with the same job rather than a 409 mismatch. A coordinator re-submitting a
// lease attempt to a restarted worker takes exactly this path.
func TestJournalLeasedIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)

	req := SweepRequest{Points: []PointSpec{hopfSpec("a", 5), hopfSpec("b", 6)}, Workers: 1, LeaseTTLMS: 60_000}
	resp1, st1 := postJSONKey(t, ts.URL+"/v1/sweep", "lease-1", req)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	if done := waitState(t, ts.URL, st1.ID, terminal); done.State != StateDone {
		t.Fatalf("state %q, want done", done.State)
	}
	ts.Close()
	s.Shutdown(context.Background())

	s2 := New(Config{Workers: 1, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)

	resp2, st2 := postJSONKey(t, ts2.URL+"/v1/sweep", "lease-1", req)
	if resp2.StatusCode != http.StatusOK || st2.ID != st1.ID {
		t.Fatalf("post-restart resubmit: %d id=%q (want 200, id %s)", resp2.StatusCode, st2.ID, st1.ID)
	}
}

// TestLeaseRenewAfterFinishDoesNotExpire renews a leased job after it went
// terminal — first on the live job, then on its journal-recovered copy — and
// waits past the TTL: a stopped lease must stay stopped, so no expiry is
// counted.
func TestLeaseRenewAfterFinishDoesNotExpire(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetGlobal(reg)
	defer obs.SetGlobal(nil)

	const ttl = 200 * time.Millisecond
	dir := t.TempDir()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)

	renew := func(base, id string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/jobs/"+id+"/renew", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("renew: %d", resp.StatusCode)
		}
	}
	expirations := func() int64 {
		return reg.Snapshot().Counter("pn_serve_lease_expirations_total", "")
	}

	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []PointSpec{hopfSpec("l", 7)}, LeaseTTLMS: int64(ttl / time.Millisecond)})
	// Heartbeat while the job runs so a slow host cannot expire it early.
	var done JobStatus
	for deadline := time.Now().Add(60 * time.Second); ; {
		renew(ts.URL, st.ID)
		if done = getStatus(t, ts.URL, st.ID, false); terminal(done) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.State != StateDone {
		t.Fatalf("state %q, want done", done.State)
	}

	renew(ts.URL, st.ID)
	time.Sleep(2 * ttl)
	if got := expirations(); got != 0 {
		t.Fatalf("lease expirations after renewing a finished job = %d, want 0", got)
	}
	ts.Close()
	s.Shutdown(context.Background())

	s2 := New(Config{Workers: 1, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)
	renew(ts2.URL, st.ID)
	time.Sleep(2 * ttl)
	if got := expirations(); got != 0 {
		t.Fatalf("lease expirations after renewing a recovered finished job = %d, want 0", got)
	}
}

// TestResultsOffsetOverflow pages past the end with the largest offset the
// parser accepts: the page must be empty with no next offset, not a wrapped
// negative one.
func TestResultsOffsetOverflow(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()

	_, st := postJSON(t, ts.URL+"/v1/characterise", CharacteriseRequest{PointSpec: hopfSpec("o", 8)})
	waitState(t, ts.URL, st.ID, terminal)

	pg, code := getResultsPage(t, ts.URL, st.ID, math.MaxInt64, 256)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if pg.NextOffset != nil {
		t.Fatalf("next_offset = %d past the end, want none", *pg.NextOffset)
	}
	if len(pg.Results) != 0 {
		t.Fatalf("%d results past the end, want 0", len(pg.Results))
	}
}
