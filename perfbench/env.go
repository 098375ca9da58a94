package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/meta"
	"dpfs/internal/metadb/mdbnet"
)

// env is one set-up cluster with the workload's seeded inputs and its
// client ranks.
type env struct {
	w    *workload
	seed int64
	dir  string
	c    *cluster.Cluster

	dims []int64 // shape of the workload's array files
	data []byte  // expected contents of the shared file
	perm []int   // hotread-floor: Zipf rank -> block

	ranks   []*rankState
	closers []io.Closer // catalog connections of traced engines
}

// setup starts the workload's cluster in dir, prepares its files and
// gives every rank a plain engine. Everything it does counts as set-up
// time.
func setup(ctx context.Context, w *workload, seed int64, dir string) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := w.cluster()
	cfg.Dir = dir
	c, err := cluster.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	e := &env{w: w, seed: seed, dir: dir, c: c}
	for i := 0; i < nproc; i++ {
		e.ranks = append(e.ranks, e.newRank(i))
	}
	if err := w.prepare(ctx, e); err != nil {
		e.close()
		return nil, fmt.Errorf("prepare %s: %w", w.name, err)
	}
	for _, r := range e.ranks {
		if r.fs, err = c.NewFS(r.id, w.engine); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// newRank returns rank id's fresh seeded state, without an engine.
func (e *env) newRank(id int) *rankState {
	r := &rankState{
		id:  id,
		rng: rand.New(rand.NewSource(e.seed*7919 + int64(id) + 1)),
		buf: make([]byte, 1<<20),
	}
	if e.w.initRank != nil {
		e.w.initRank(e, r)
	}
	return r
}

// trace swaps every rank onto a decorated engine: the catalog
// connection is wrapped by tracedExecer, the catalog by tracedRouter
// and the I/O-server dialer by countingDial, all reporting to the
// rank's tracer. The engine code is the same; only its collaborators
// are wrapped.
func (e *env) trace(epoch time.Time) error {
	for _, r := range e.ranks {
		r.fs.Close()
		r.tr = newTracer(r.id, epoch)
		r.cs = &connStats{}
		fs, err := e.tracedEngine(r.id, r.tr, r.cs)
		if err != nil {
			return err
		}
		r.fs = fs
	}
	return nil
}

// tracedEngine builds one decorated engine for rank.
func (e *env) tracedEngine(rank int, tr *tracer, cs *connStats) (*core.FS, error) {
	addrs := e.c.MetaGroupAddrs()
	if len(addrs) != 1 {
		return nil, fmt.Errorf("traced engine: %d catalog shards, want 1", len(addrs))
	}
	var x meta.Execer
	if len(addrs[0]) == 1 {
		cli, err := mdbnet.Dial(addrs[0][0])
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, cli)
		x = cli
	} else {
		g, err := mdbnet.DialGroup(addrs[0], nil)
		if err != nil {
			return nil, err
		}
		e.closers = append(e.closers, g)
		x = g
	}
	router := &tracedRouter{inner: meta.NewCatalog(&tracedExecer{inner: x, tr: tr}), tr: tr}
	opts := e.w.engine
	opts.Dial = countingDial(cs)
	return core.NewFS(router, rank, opts), nil
}

// close shuts the engines and the cluster down and deletes its files.
func (e *env) close() {
	for _, r := range e.ranks {
		if r.fs != nil {
			r.fs.Close()
		}
	}
	for _, c := range e.closers {
		c.Close()
	}
	e.c.Close()
	os.RemoveAll(e.dir)
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	elapsed time.Duration
	lats    latencies // successful ops only
	ops     int64     // attempted
	failed  int64
	kinds   map[string]int64
	peakRSS int64 // bytes; 0 unless sampled
	// winOps and winBytes hold, per window, the successful ops and
	// their application bytes (read plus written) done in it; see
	// accrue.
	winOps, winBytes []float64
}

// window is the length of the windows a phase's throughput is
// reported over: rates are the median of the per-window rates, which
// damps a passing stall of the host.
const window = time.Second

// rate returns the median per-window rate of work (per second),
// ignoring the final partial window.
func (p *phase) rate(work []float64) float64 {
	full := int(p.elapsed / window)
	if full == 0 {
		var n float64
		for _, c := range work {
			n += c
		}
		return n / p.elapsed.Seconds()
	}
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = work[i] / window.Seconds()
	}
	return median(rates)
}

// accrue credits one op that ran over [from, to) of the phase, and
// its bytes, to the windows it overlaps in proportion to the overlap.
// Counting ops where they completed would quantize a window's rate to
// whole ops, which for tens of ops per second hides changes of a few
// percent.
func accrue(ops, bytes []float64, from, to time.Duration, n int64) {
	if to <= from {
		to = from + 1
	}
	for w := int(from / window); w < len(ops) && time.Duration(w)*window < to; w++ {
		lo := max(from, time.Duration(w)*window)
		hi := min(to, time.Duration(w+1)*window)
		frac := float64(hi-lo) / float64(to-from)
		ops[w] += frac
		bytes[w] += frac * float64(n)
	}
}

// maxPrinted caps how many failures a phase prints.
const maxPrinted = 20

// run drives every rank in a closed loop for d: each rank issues its
// next op only when the previous one has returned. Failures, byte
// mismatches included, are counted and printed to stderr.
func (e *env) run(ctx context.Context, d time.Duration, sampleRSS bool) *phase {
	nwin := int(d/window) + 2
	p := &phase{kinds: map[string]int64{}, winOps: make([]float64, nwin), winBytes: make([]float64, nwin)}
	var stopRSS func() int64
	if sampleRSS {
		stopRSS = startRSSSampler()
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		printed int
	)
	start := time.Now()
	deadline := start.Add(d)
	for _, r := range e.ranks {
		wg.Add(1)
		go func(r *rankState) {
			defer wg.Done()
			var (
				lats        latencies
				ops, failed int64
				kinds       = map[string]int64{}
				winOps      = make([]float64, nwin)
				winBytes    = make([]float64, nwin)
			)
			for time.Now().Before(deadline) && ctx.Err() == nil {
				n, err := e.w.op(ctx, e, r)
				ops++
				kinds[r.kind]++
				if err != nil {
					failed++
					mu.Lock()
					if printed < maxPrinted {
						fmt.Fprintf(os.Stderr, "FAIL %s rank %d %s op: %v\n", e.w.name, r.id, r.kind, err)
					}
					printed++
					mu.Unlock()
					continue
				}
				lats = append(lats, r.lat)
				from := r.t0.Sub(start)
				accrue(winOps, winBytes, from, from+r.lat, n)
			}
			mu.Lock()
			p.lats = append(p.lats, lats...)
			p.ops += ops
			p.failed += failed
			for k, v := range kinds {
				p.kinds[k] += v
			}
			for i := range winOps {
				p.winOps[i] += winOps[i]
				p.winBytes[i] += winBytes[i]
			}
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	if stopRSS != nil {
		p.peakRSS = stopRSS()
	}
	return p
}

// startRSSSampler polls the process's resident set every few
// milliseconds until the returned stop func, which reports the peak.
func startRSSSampler() (stop func() int64) {
	done := make(chan struct{})
	var peak int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if rss := residentBytes(); rss > peak {
				peak = rss
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		if rss := residentBytes(); rss > peak {
			peak = rss
		}
		return peak
	}
}

// residentBytes reads the process's resident set size from
// /proc/self/statm (0 where that file does not exist).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// spaceAmp is the subfile bytes on every I/O server's disk per byte of
// live user data in the catalog.
func (e *env) spaceAmp() (float64, error) {
	cat, err := e.c.NewRouter()
	if err != nil {
		return 0, err
	}
	files, err := cat.Files()
	if err != nil {
		return 0, err
	}
	var live int64
	for _, p := range files {
		fi, err := cat.Stat(p)
		if err != nil {
			return 0, err
		}
		live += fi.Size
	}
	var stored int64
	for _, s := range e.c.Specs {
		err := filepath.WalkDir(filepath.Join(e.dir, "srv-"+s.Name), func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			stored += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return per(float64(stored), float64(live)), nil
}
