package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// alterDigit finds field:value (value JSON-encoded) in the file at path and
// changes its leading significant digit, returning the altered value's text.
// The search is by content, so it works on any on-disk format that stores
// the JSON text verbatim.
func alterDigit(t *testing.T, path, field string, value float64) string {
	t.Helper()
	num, err := json.Marshal(value)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	needle := append([]byte(`"`+field+`":`), num...)
	at := bytes.Index(data, needle)
	if at < 0 {
		t.Fatalf("%s not found in %s", needle, path)
	}
	d := at + len(needle) - len(num) + bytes.IndexAny(num, "123456789") // leading significant digit
	data[d] = '0' + (data[d]-'0')%9 + 1
	altered := string(data[at+len(needle)-len(num) : at+len(needle)])
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return altered
}

// finishSweep runs a 2-point sweep to done on a journalled server and
// returns the server, its URL and the job status.
func finishSweep(t *testing.T, dir string) (*Server, *httptest.Server, JobStatus) {
	t.Helper()
	s := New(Config{Workers: 1, JournalDir: dir})
	ts := httptest.NewServer(s)
	waitReady(t, ts.URL)
	_, st := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Points: []PointSpec{hopfSpec("f0", 3), hopfSpec("f1", 4)}, Workers: 1})
	done := waitState(t, ts.URL, st.ID, terminal)
	if done.State != StateDone || len(done.Results) != 2 {
		t.Fatalf("sweep: %+v", done)
	}
	return s, ts, done
}

// TestSpillBitFlipNotServed: one changed digit of a spilled c is never
// served. /results stops before the bad record exactly as under an injected
// read fault (500 for a page, a short JSONL stream, no ?full=1), and after a
// restart the damaged record is cut from the spill.
func TestSpillBitFlipNotServed(t *testing.T) {
	dir := t.TempDir()
	s, ts, done := finishSweep(t, dir)
	altered := alterDigit(t, filepath.Join(dir, resultSubdir, done.ID+".pnr"), "c", done.Results[1].C)

	if _, code := getResultsPage(t, ts.URL, done.ID, 0, 10); code != http.StatusInternalServerError {
		t.Fatalf("page over a flipped record: status %d, want 500", code)
	}
	lines, _ := getJSONL(t, ts.URL, done.ID)
	for _, l := range lines {
		if strings.Contains(string(l), altered) {
			t.Fatalf("altered c %s served in the JSONL stream", altered)
		}
	}
	if len(lines) != 1 {
		t.Fatalf("JSONL stream: %d lines, want 1 (stops before the bad record)", len(lines))
	}
	if full := getStatus(t, ts.URL, done.ID, true); len(full.Full) != 0 {
		t.Fatalf("?full=1 served %d results over a flipped record", len(full.Full))
	}
	ts.Close()
	s.Shutdown(context.Background())

	s2 := New(Config{Workers: 1, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)
	lines, code := getJSONL(t, ts2.URL, done.ID)
	if code != http.StatusOK {
		t.Fatalf("JSONL after restart: status %d", code)
	}
	for _, l := range lines {
		if strings.Contains(string(l), altered) {
			t.Fatalf("altered c %s served after restart", altered)
		}
	}
}

// TestJournalBitFlipNotServed: one changed digit of a journaled point
// summary is never restored. The damaged record and everything after it are
// cut, so the terminal event goes too and the job restores as failed.
func TestJournalBitFlipNotServed(t *testing.T) {
	dir := t.TempDir()
	s, ts, done := finishSweep(t, dir)
	ts.Close()
	s.Shutdown(context.Background())
	alterDigit(t, filepath.Join(dir, done.ID+doneExt), "c_s2hz", done.Results[0].C)

	s2 := New(Config{Workers: 1, JournalDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	waitReady(t, ts2.URL)
	st := getStatus(t, ts2.URL, done.ID, false)
	for i, r := range st.Results {
		if r.C != 0 && r.C != done.Results[i].C {
			t.Fatalf("point %d restored with c=%g, journaled %g", i, r.C, done.Results[i].C)
		}
	}
	if st.State != StateFailed {
		t.Fatalf("job with a damaged journal restored %q, want failed", st.State)
	}
}

// TestJournalRotatedWithoutTerminalFails: a rotated journal whose terminal
// event was torn off restores as failed, naming the last journaled event —
// not as running, which nothing would ever finish.
func TestJournalRotatedWithoutTerminalFails(t *testing.T) {
	dir := t.TempDir()
	writeJournalFile(t, dir, "j7"+doneExt, []jrecord{
		{V: 1, T: "accepted", ID: "j7", Kind: "sweep", Specs: []PointSpec{hopfSpec("p0", 3)}, Workers: 1},
		{V: 1, T: "event", Ev: &Event{Seq: 1, Type: "state", State: StateQueued}},
		{V: 1, T: "event", Ev: &Event{Seq: 2, Type: "state", State: StateRunning}},
	}, `{"v":1,"t":"event","ev":{"seq":3,"type":"state","sta`)

	s := New(Config{Workers: 1, JournalDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s)
	defer ts.Close()
	waitReady(t, ts.URL)

	st := getStatus(t, ts.URL, "j7", false)
	if st.State != StateFailed || st.Error == nil || !strings.Contains(st.Error.Error(), "seq 2") {
		t.Fatalf("restored %q (error %v), want failed naming seq 2", st.State, st.Error)
	}
	evs := readSSE(t, ts.URL, "j7")
	if last := evs[len(evs)-1]; last.Type != "state" || last.State != StateFailed || last.Seq != 3 {
		t.Fatalf("event stream ends %+v, want a failed state event at seq 3", last)
	}
}
