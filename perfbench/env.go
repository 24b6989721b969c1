package main

import (
	"bufio"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// node is one in-process server wired like cmd/pnserve: an on-disk result
// cache and a job journal (whose results/ subdirectory holds the spill
// files), served over httptest.
type node struct {
	dir   string
	store *cache.Store
	srv   *serve.Server
	ts    *httptest.Server
	coord *cluster.Coordinator
}

// startNode boots a server with `workers` job workers under dir. With
// workerURLs it is a cluster coordinator front leasing sweeps to them, its
// lease WAL under the journal like pnserve -coordinator; coordHTTP is the
// coordinator's worker client.
func startNode(dir string, workers int, workerURLs []string, coordHTTP *http.Client) (*node, error) {
	n := &node{dir: dir}
	store, err := cache.New(cache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		return nil, err
	}
	n.store = store
	journal := filepath.Join(dir, "journal")
	cfg := serve.Config{Workers: workers, Cache: store, JournalDir: journal}
	if len(workerURLs) > 0 {
		n.coord = cluster.New(cluster.Config{
			Workers: workerURLs,
			WALDir:  filepath.Join(journal, "leases"),
			Cache:   store,
			HTTP:    coordHTTP,
		})
		cfg.Runner = n.coord
		cfg.ClusterStatus = n.coord.Status
	}
	n.srv = serve.New(cfg)
	n.ts = httptest.NewServer(n.srv)
	if err := waitReady(n.ts.URL); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// waitReady polls /readyz until the journal replay of a fresh directory has
// finished.
func waitReady(base string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server %s not ready after 30s", base)
}

func (n *node) close() {
	if n == nil {
		return
	}
	n.srv.BeginDrain()
	n.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // past the grace, jobs are cancelled: nothing left to wait for
	if n.coord != nil {
		n.coord.Close()
	}
}

// diskMB returns the journal's spill files (results/) and everything else in
// the journal (job journals, traces, lease WALs), in MB.
func (n *node) diskMB() (journal, spill float64) {
	root := filepath.Join(n.dir, "journal")
	spillDir := filepath.Join(root, "results")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		mb := float64(info.Size()) / 1e6
		if strings.HasPrefix(path, spillDir+string(filepath.Separator)) {
			spill += mb
		} else {
			journal += mb
		}
		return nil
	})
	return journal, spill
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) back to its
// current resident set size.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

type rssWindows struct {
	peaks []float64 // MB
	err   error
}

// windowPeaks reads the process's peak resident set size at the end of every
// window and resets it, until stop is closed; the last window ends at stop.
// peak_rss_mb is the median of these window peaks: a run's overall peak
// depends on where a GC cycle falls against the few large sweep payloads of a
// sweep-cluster run, and on whether one more sweep fits into the run.
func windowPeaks(window time.Duration, stop <-chan struct{}) rssWindows {
	t := time.NewTicker(window)
	defer t.Stop()
	var w rssWindows
	for {
		select {
		case <-t.C:
		case <-stop:
			p, err := peakRSSMB()
			w.peaks, w.err = append(w.peaks, p), err
			return w
		}
		p, err := peakRSSMB()
		if err == nil {
			err = resetPeakRSS()
		}
		if err != nil {
			w.err = err
			return w
		}
		w.peaks = append(w.peaks, p)
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
