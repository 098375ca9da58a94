// Command perfbench is the repository's benchmark. It runs one of four
// named, seeded, closed-loop workloads against an in-process DPFS
// cluster (internal/cluster), checks every byte it reads against the
// seeded inputs, and prints its metrics; the last line of output is
// one JSON object.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it sets the cluster up several times (setup_s is the
// median), then measures the end-to-end metrics with no tracing. With
// --trace 1 it measures an untraced phase and then a traced phase of
// the same length on decorated engines, and reports the per-layer
// metrics. The trace is taken only from outside the program: spans
// around the benchmark's own calls into each layer's public functions,
// decorators around the collaborators core.NewFS accepts, and deltas
// of the layers' existing metric registries. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric; the lists must match
// BENCHMARK.json (a self-test checks that they do).
type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mb_per_s", "MB/s", "higher"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"space_amp", "ratio", "lower"},
}

// printedOnly are end-to-end figures a run prints by name and unit but
// leaves out of the JSON result. error_rate is 0 on a correct run, and
// the result's failed and attempted already carry it. op_p99_ms spread
// by up to 28% (quartile distance over median, ten runs of ckpt-floor)
// on a 2-vCPU host, past the largest bound a gated metric may have.
var printedOnly = []metricDef{
	{"op_p99_ms", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
}

var perLayer = []metricDef{
	{"stripe.plan_us", "us", "lower"},
	{"stripe.bricks_per_op", "count", "lower"},
	{"stripe.requests_per_op", "count", "lower"},
	{"core.exec_us", "us", "lower"},
	{"core.self_us", "us", "lower"},
	{"core.exchanges_per_op", "count", "lower"},
	{"core.moved_per_useful", "ratio", "lower"},
	{"cache.data_hit_ratio", "ratio", "higher"},
	{"cache.meta_hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_op", "count", "lower"},
	{"server.exchange_us", "us", "lower"},
	{"server.handler_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.subfile_io_us", "us", "lower"},
	{"server.conns_opened", "count", "lower"},
	{"server.bytes_per_op", "bytes", "lower"},
	{"server.io_calls_per_op", "count", "lower"},
	{"netsim.wait_us", "us", "lower"},
	{"netsim.busy_frac_max", "frac", "lower"},
	{"wire.encode_us_per_op", "us", "lower"},
	{"wire.decode_us_per_op", "us", "lower"},
	{"wire.allocs_per_op", "count", "lower"},
	{"wire.frame_overhead", "ratio", "lower"},
	{"meta.lookup_us", "us", "lower"},
	{"meta.create_us", "us", "lower"},
	{"meta.remove_us", "us", "lower"},
	{"meta.nextgen_us", "us", "lower"},
	{"meta.usedbytes_us", "us", "lower"},
	{"meta.calls_per_op", "count", "lower"},
	{"metadb.stmt_us", "us", "lower"},
	{"metadb.exec_us", "us", "lower"},
	{"metadb.rpc_us", "us", "lower"},
	{"metadb.parse_us", "us", "lower"},
	{"metadb.stmts_per_op", "count", "lower"},
	{"metadb.fsyncs_per_op", "count", "lower"},
	{"metadb.wal_bytes_per_op", "bytes", "lower"},
	{"metadb.batch_size", "count", "higher"},
	{"metarepl.records_shipped_per_op", "count", "lower"},
	{"metarepl.ack_timeouts", "count", "lower"},
	{"process.cpu_ms_per_op", "ms", "lower"},
	{"process.allocs_per_op", "count", "lower"},
	{"process.alloc_bytes_per_op", "bytes", "lower"},
	{"process.gc_cycles", "count", "lower"},
	{"trace.unattributed_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
}

const (
	// setups is how many times a --trace 0 run sets the cluster up;
	// setup_s is their median.
	setups = 7
	// warmup runs each phase's closed loop untimed first, so caches
	// fill and connections are dialed before measuring.
	warmup = time.Second
	// buildDir holds everything a run writes, relative to the root
	// of the checkout.
	buildDir = ".bench_build"
)

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: colread-shaped, ckpt-floor, hotread-floor or meta-churn")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *traceFlag == 1 {
		res, err = traced(w, *seed, d, work)
	} else {
		res, err = untraced(w, *seed, d, work)
	}
	os.RemoveAll(work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// untraced sets the workload up `setups` times and measures the
// end-to-end metrics on the last set-up.
func untraced(w *workload, seed int64, d time.Duration, work string) (*result, error) {
	ctx := context.Background()
	var (
		e     *env
		times []float64
	)
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		var err error
		e, err = setup(ctx, w, seed, filepath.Join(work, fmt.Sprintf("setup%d", k)))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer e.close()
	fmt.Printf("%s (%s, %d closed-loop ranks) seed=%d: setup_s runs %v\n", w.name, w.regime, nproc, seed, fmtFloats(times))

	warm := e.run(ctx, warmup, false)
	debug.FreeOSMemory()
	p := e.run(ctx, d, true)
	res := &result{Attempted: warm.ops + p.ops, Failed: warm.failed + p.failed}
	readBack(ctx, e, res)
	amp, err := e.spaceAmp()
	if err != nil {
		return nil, err
	}
	if len(p.lats) == 0 {
		return nil, fmt.Errorf("no op succeeded in the measured phase")
	}
	res.Correct = res.Failed == 0
	s := p.lats.sorted()
	vals := map[string]float64{
		"setup_s":     median(times),
		"mb_per_s":    p.rate(p.winBytes) / 1e6,
		"ops_per_s":   p.rate(p.winOps),
		"op_p50_ms":   ms(quantile(s, 0.50)),
		"op_p99_ms":   ms(quantile(s, 0.99)),
		"peak_rss_mb": float64(p.peakRSS) / 1e6,
		"space_amp":   amp,
		"error_rate":  per(float64(res.Failed), float64(res.Attempted)),
	}
	fmt.Printf("  measured %.3fs: %s; ops by kind %v; %d failed of %d attempted (warm-up and read-back included)\n",
		p.elapsed.Seconds(), s.summary(), p.kinds, res.Failed, res.Attempted)
	res.Metrics = report(endToEnd, vals)
	report(printedOnly, vals)
	return res, nil
}

// traced sets the workload up once, measures an untraced phase, swaps
// every rank onto decorated engines and measures a traced phase of
// the same length.
func traced(w *workload, seed int64, d time.Duration, work string) (*result, error) {
	ctx := context.Background()
	e, err := setup(ctx, w, seed, filepath.Join(work, "setup"))
	if err != nil {
		return nil, err
	}
	defer e.close()
	t := &traceRun{}
	res := &result{}
	count := func(p *phase) {
		res.Attempted += p.ops
		res.Failed += p.failed
	}

	count(e.run(ctx, warmup, false))
	debug.FreeOSMemory()
	before := collect(e)
	t.plain = e.run(ctx, d, false)
	t.plainDelta = delta(before, collect(e))
	count(t.plain)

	if err := e.trace(time.Now()); err != nil {
		return nil, err
	}
	count(e.run(ctx, warmup, false))
	for _, r := range e.ranks {
		r.tr.reset()
		r.cs.reset()
		t.tracers = append(t.tracers, r.tr)
	}
	debug.FreeOSMemory()
	before = collect(e)
	t.traced = e.run(ctx, d, false)
	t.d = delta(before, collect(e))
	count(t.traced)
	readBack(ctx, e, res)
	if t.traced.ops == 0 {
		return nil, fmt.Errorf("no op ran in the traced phase")
	}
	for _, r := range e.ranks {
		t.conns.add(r.cs)
	}
	var xs []exchange
	var sqls []string
	for _, tr := range t.tracers {
		xs = append(xs, tr.exchanges...)
		sqls = append(sqls, tr.sql...)
	}
	t.wire = replayWire(xs)
	t.parse = replayParse(sqls)
	res.Correct = res.Failed == 0

	spans := filepath.Join(buildDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(spans, t.tracers); err != nil {
		return nil, err
	}
	vals := layerMetrics(t)
	fmt.Printf("%s (%s) seed=%d traced: %d ops in %.3fs (untraced %d ops in %.3fs); spans in %s\n",
		w.name, w.regime, seed, t.traced.ops, t.traced.elapsed.Seconds(), t.plain.ops, t.plain.elapsed.Seconds(), spans)
	printLedger(t)
	res.Metrics = report(perLayer, vals)
	return res, nil
}

// readBack runs the workload's untimed read-back of what it wrote, if
// it has one, and counts each check as an attempted op.
func readBack(ctx context.Context, e *env, res *result) {
	if e.w.verify == nil {
		return
	}
	checked, errs := e.w.verify(ctx, e)
	res.Attempted += checked
	res.Failed += int64(len(errs))
	for _, err := range errs {
		fmt.Fprintf(os.Stderr, "FAIL %s read-back: %v\n", e.w.name, err)
	}
}

// printLedger prints, per span name, the mean self and total time per
// op, and for creates the share of their time spent in UsedBytes.
func printLedger(t *traceRun) {
	tots := mergeTotals(t.tracers)
	ops := float64(t.traced.ops)
	names := make([]string, 0, len(tots))
	for n := range tots {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-28s %10s %12s %12s\n", "span", "calls/op", "self us/op", "total us/op")
	for _, n := range names {
		s := tots[n]
		fmt.Printf("  %-28s %10.3f %12.3f %12.3f\n", n, float64(s.count)/ops, float64(s.self)/ops/1e3, float64(s.total)/ops/1e3)
	}
	if c := tots["core.create"]; c.count > 0 {
		u := tots["meta.UsedBytes"]
		fmt.Printf("  finding: core.create takes %.1f us per call; meta.UsedBytes inside it takes %.1f us per call (%.0f%% of create time)\n",
			float64(c.total)/float64(c.count)/1e3, per(float64(u.total), float64(c.count))/1e3, 100*per(float64(u.total), float64(c.total)))
	}
}

func report(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			panic("metric " + d.name + " was not computed")
		}
		out[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("  %-34s %16.6f %s\n", d.name, v, d.unit)
	}
	return out
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
