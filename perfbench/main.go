// Command perfbench is the phase-noise service benchmark: four workloads,
// from a cold interactive miss to a two-worker cluster sweep, each driven
// from this one process against in-process servers wired like cmd/pnserve.
//
// Usage (from the repository root, through perfbench/run.sh, which builds it):
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the workload untraced, then traced with the benchmark's own spans, then
// replays each layer's public functions on the workload's own inputs; it
// writes the spans as JSONL and a layer table under .bench_out/ and reports
// the per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 1 when a
// correctness check failed and 2 when the benchmark could not run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// workload is one set-up instance of a named workload.
type workload interface {
	// run measures for d, continuing the workload's seeded input stream;
	// with a tracer it records spans.
	run(tr *tracer, d time.Duration) *outcome
	// replay makes the traced run's direct layer calls and returns the
	// correctness failures it found.
	replay(tr *tracer) []string
	close()
}

type workloadDef struct {
	name   string
	setups int // set-ups per run; setup_s is their median
	setup  func(b *bench, dir string) (workload, error)
}

var workloads = []workloadDef{
	{"interactive-cold", 9, func(b *bench, dir string) (workload, error) { return setupInteractive(b, dir, false) }},
	{"interactive-warm", 3, func(b *bench, dir string) (workload, error) { return setupInteractive(b, dir, true) }},
	{"sweep-local", 9, setupLocal},
	{"sweep-cluster", 5, setupCluster},
}

// bench carries a run's arguments and its fresh working directory.
type bench struct {
	seed int64
	dir  string
}

const (
	jobTimeout   = 120 * time.Second
	replaySample = 8
)

// outcome is what one measured phase produced.
type outcome struct {
	mu        sync.Mutex
	lat       []float64 // ms per job (interactive, sweep-cluster) or per sweep.Run (sweep-local)
	jobs      int
	points    int
	attempted int
	failed    int
	failures  []string
	elapsed   time.Duration
}

// add records one finished job of `points` points; err marks it wrong, and
// failedPoints of its points count as failed.
func (o *outcome) add(latMS float64, points, failedPoints int, err error, name string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lat = append(o.lat, latMS)
	o.jobs++
	o.points += points
	o.attempted += points
	if err != nil {
		o.failed += max(failedPoints, 1)
		if len(o.failures) < 10 {
			o.failures = append(o.failures, fmt.Sprintf("%s: %v", name, err))
		}
	}
}

// closedLoop runs `clients` clients, each starting its next job only when
// the previous one finished, until d has passed; jobs in flight at the
// deadline finish and count.
func closedLoop(clients int, d time.Duration, next func() int, do func(i int, out *outcome)) *outcome {
	out := &outcome{}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				do(next(), out)
			}
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: interactive-cold, interactive-warm, sweep-local or sweep-cluster")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per phase, seconds")
	trace := flag.Int("trace", 0, "1 = traced run with per-layer metrics")
	outDir := flag.String("out", ".bench_out", "directory for trace JSONL and layer tables")
	flag.Parse()

	var def *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(def, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(def *workloadDef, seed int64, d time.Duration, traced bool, outDir string) (*result, error) {
	workRoot := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workRoot, def.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	// A server always exposes /metrics; install the registry as pnserve does.
	obs.SetGlobal(obs.NewRegistry())

	b := &bench{seed: seed}
	var setups []float64
	var w workload
	for i := 0; i < def.setups; i++ {
		b.dir = filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		w, err = def.setup(b, b.dir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < def.setups-1 {
			w.close()
		}
		// Start every set-up and the measurement from a collected heap, so
		// earlier set-ups' garbage does not land in the measured phase.
		debug.FreeOSMemory()
	}
	if traced {
		return runTraced(def.name, seed, w, d, outDir)
	}
	return runMeasured(def.name, w, d, median(setups))
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []string{"latency_p50_ms", "latency_p90_ms", "jobs_per_s", "points_per_s", "peak_rss_mb", "setup_s"}

// runMeasured is the untraced run behind the end-to-end metrics.
func runMeasured(name string, w workload, d time.Duration, setupS float64) (*result, error) {
	// Reset the peak so that peak_rss_mb covers the measured phase only, not
	// the repeated set-ups before it.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	peaks := make(chan rssWindows, 1)
	go func() { peaks <- windowPeaks(time.Second, stop) }()
	out := w.run(nil, d)
	close(stop)
	rss := <-peaks
	w.close()
	if rss.err != nil {
		return nil, rss.err
	}
	report(name, "measured", out)
	secs := out.elapsed.Seconds()
	res := &result{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"latency_p50_ms": {percentile(out.lat, 50), "ms"},
			"latency_p90_ms": {percentile(out.lat, 90), "ms"},
			"jobs_per_s":     {float64(out.jobs) / secs, "1/s"},
			"points_per_s":   {float64(out.points) / secs, "1/s"},
			"peak_rss_mb":    {median(rss.peaks), "MB"},
		},
	}
	for _, k := range endToEnd {
		fmt.Printf("%-16s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%-16s %14.4f (%d of %d failed; %d latency samples)\n", "fail_ratio",
		float64(out.failed)/float64(max(out.attempted, 1)), out.failed, out.attempted, len(out.lat))
	return res, nil
}

// runTraced is the traced run behind the per-layer metrics: an untraced
// phase for the tracing-overhead baseline, the traced phase, then the direct
// layer replays. It writes the spans and the layer table under outDir.
func runTraced(name string, seed int64, w workload, d time.Duration, outDir string) (*result, error) {
	tr := newTracer()
	base := w.run(nil, d/3)
	report(name, "untraced", base)
	out := w.run(tr, d/2)
	report(name, "traced", out)
	// Zero-length markers carry the two phases' medians for trace.overhead_pct.
	now := time.Now()
	tr.record(nil, "phase.untraced", now, now, map[string]float64{"latency_p50_ms": pct(base.lat, 50)})
	tr.record(nil, "phase.traced", now, now, map[string]float64{"latency_p50_ms": pct(out.lat, 50)})
	fails := w.replay(tr)
	w.close()
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "perfbench: replay:", f)
	}

	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "spans.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		return nil, err
	}
	spans, err := readJSONL(path)
	if err != nil {
		return nil, err
	}
	vals := layerMetrics(spans)
	table := layerTable(name, path, spans, vals)
	if err := os.WriteFile(filepath.Join(dir, "layers.txt"), []byte(table), 0o644); err != nil {
		return nil, err
	}
	fmt.Print(table)

	// The replay's checks count as one more attempted operation.
	failed := base.failed + out.failed
	if len(fails) > 0 {
		failed++
	}
	res := &result{Correct: failed == 0, Attempted: base.attempted + out.attempted + 1, Failed: failed, Metrics: map[string]metric{}}
	for _, lm := range layerDefs {
		res.Metrics[lm.name] = metric{vals[lm.name].value, lm.unit}
	}
	return res, nil
}

func report(name, phase string, o *outcome) {
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d jobs, %d points, %d failed in %.2fs\n",
		name, phase, o.jobs, o.points, o.failed, o.elapsed.Seconds())
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failure:", f)
	}
}

// percentile interpolates linearly between closest ranks (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }
