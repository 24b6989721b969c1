package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dynsys"
)

// countingTransport is the outside-in HTTP instrument: handed to pnclient.New
// (the benchmark's own clients) or to cluster.Config.HTTP (the coordinator's
// worker client), it marks refusals and transport errors against the job in
// the request's context and, with a tracer installed, records one span per
// request from send until its body is closed, with its status and body bytes.
type countingTransport struct {
	base   http.RoundTripper
	tr     atomic.Pointer[tracer]
	prefix string
}

// newCountingClient returns a client over http.DefaultTransport, the
// transport pnclient and the coordinator use when given no client, whose
// spans go to the tracer installed with ct.tr.Store (none until then).
func newCountingClient(prefix string) (*http.Client, *countingTransport) {
	ct := &countingTransport{base: http.DefaultTransport, prefix: prefix}
	return &http.Client{Transport: ct}, ct
}

// jobMark collects what one benchmark job's requests ran into, so refusals
// and transport errors count against that job even when the client's
// retries later succeed.
type jobMark struct {
	rejected atomic.Int64
	errors   atomic.Int64
}

type jobMarkKey struct{}

func withJobMark(ctx context.Context, m *jobMark) context.Context {
	return context.WithValue(ctx, jobMarkKey{}, m)
}

// sseSlot receives the span of a job's SSE stream, so the state spans the
// stream observed can be recorded under it.
type sseSlot struct{ sp *live }

type sseSlotKey struct{}

// route collapses job IDs so spans of one endpoint share a name.
func route(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) > 3 && parts[1] == "v1" && parts[2] == "jobs" {
		parts[3] = "{id}"
	}
	return strings.Join(parts, "/")
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx := req.Context()
	mark, _ := ctx.Value(jobMarkKey{}).(*jobMark)
	sp := c.tr.Load().start(spanFrom(ctx), c.prefix+" "+req.Method+" "+route(req.URL.Path), "")
	sp.set("bytes_out", float64(max(req.ContentLength, 0)))
	if strings.HasSuffix(req.URL.Path, "/events") {
		sp.set("sse", 1)
		if slot, ok := ctx.Value(sseSlotKey{}).(*sseSlot); ok {
			slot.sp = sp
		}
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		if mark != nil {
			mark.errors.Add(1)
		}
		sp.set("error", 1)
		sp.end()
		return nil, err
	}
	sp.set("status", float64(resp.StatusCode))
	refused := resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	if refused && mark != nil {
		mark.rejected.Add(1)
	}
	resp.Body = &countingBody{rc: resp.Body, sp: sp}
	return resp, nil
}

type countingBody struct {
	rc   io.ReadCloser
	sp   *live
	n    int64
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() {
		b.sp.set("bytes_in", float64(b.n))
		b.sp.end()
	})
	return err
}

// countingSystem counts right-hand-side and Jacobian evaluations of one
// scalar model.
type countingSystem struct {
	dynsys.System
	evals, jacs atomic.Int64
}

func (c *countingSystem) Eval(x, dst []float64) {
	c.evals.Add(1)
	c.System.Eval(x, dst)
}

func (c *countingSystem) Jacobian(x, dst []float64) {
	c.jacs.Add(1)
	c.System.Jacobian(x, dst)
}

// countingBatch counts lockstep evaluations of a batch evaluator; one call
// evaluates every lane.
type countingBatch struct {
	dynsys.BatchEvaluator
	evals, jacs atomic.Int64
}

func (c *countingBatch) EvalBatch(x, dst []float64) {
	c.evals.Add(1)
	c.BatchEvaluator.EvalBatch(x, dst)
}

func (c *countingBatch) JacobianBatch(x, jac []float64) {
	c.jacs.Add(1)
	c.BatchEvaluator.JacobianBatch(x, jac)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
