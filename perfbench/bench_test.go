package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := make(latencies, 1000)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(latencies{7}, 0.99); got != 7 {
		t.Errorf("one sample: got %d", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("no samples: got %d", got)
	}
}

func TestResolvedTail(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1e5, 99.99}, {1e6, 99.999}} {
		if got := resolvedTail(c.n); got != c.want {
			t.Errorf("resolvedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestMedianAndRate(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	// Three full windows and a partial one: the partial is ignored.
	p := &phase{elapsed: 3*window + window/2}
	if got := p.rate([]float64{10, 40, 20, 1000}); got != 20 {
		t.Errorf("rate = %g, want the median full window 20", got)
	}
}

func TestAccrueSplitsOpsByOverlap(t *testing.T) {
	ops, bytes := make([]float64, 3), make([]float64, 3)
	// Two thirds of this op falls in window 0, one third in window 1.
	accrue(ops, bytes, window/2, window+window/4, 300)
	accrue(ops, bytes, window+window/2, window+window*3/4, 100)
	// Work past the last window is dropped, not wrapped around.
	accrue(ops, bytes, 2*window+window/2, 4*window, 100)
	const eps = 1e-9
	for i, c := range []struct{ ops, bytes float64 }{{2.0 / 3, 200}, {4.0 / 3, 200}, {1.0 / 3, 100.0 / 3}} {
		if d := ops[i] - c.ops; d > eps || d < -eps {
			t.Errorf("window %d: ops %g, want %g", i, ops[i], c.ops)
		}
		if d := bytes[i] - c.bytes; d > eps || d < -eps {
			t.Errorf("window %d: bytes %g, want %g", i, bytes[i], c.bytes)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "a.x", Parent: 1, Start: 15, End: 20},
		{Name: "a.y", Parent: 1, Start: 18, End: 30}, // overlaps a.x
		{Name: "b", Parent: 0, Start: 35, End: 60},   // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},  // runs past its parent
	}
	want := []int64{
		100 - ((60 - 10) + (100 - 90)),
		30 - (30 - 15),
		5, 12, 25, 30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerNestingAndTotals(t *testing.T) {
	tr := newTracer(0, time.Now())
	for i := 0; i < 3; i++ {
		root := tr.beginOp()
		a := tr.begin("core.open")
		b := tr.begin("meta.LookupReplicated")
		tr.end(b)
		tr.end(a)
		tr.end(tr.begin("core.exec"))
		tr.endOp(root, "read")
	}
	if len(tr.kept) != 12 {
		t.Fatalf("kept %d spans, want 12", len(tr.kept))
	}
	wantParents := []int{-1, 0, 1, 0}
	for i, sp := range tr.kept[:4] {
		if sp.Parent != wantParents[i] || sp.Op != 1 {
			t.Errorf("span %d (%s): parent %d op %d, want parent %d op 1", i, sp.Name, sp.Parent, sp.Op, wantParents[i])
		}
	}
	if tr.kept[4].Op != 2 {
		t.Errorf("second op's spans carry op %d", tr.kept[4].Op)
	}
	tots := mergeTotals([]*tracer{tr})
	root, open := tots["op.read"], tots["core.open"]
	if root.count != 3 || open.count != 3 || tots["meta.LookupReplicated"].count != 3 {
		t.Errorf("counts: %+v", tots)
	}
	children := open.total + tots["core.exec"].total
	if root.self != root.total-children {
		t.Errorf("root self %d, want total %d minus children %d", root.self, root.total, children)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // untraced runs share the code
}

// TestTracedEngineMatchesPlain checks that the decorated engine of the
// traced run does the same work as a plain one: the same op sequence
// returns byte-identical data and leaves identical engine counters.
func TestTracedEngineMatchesPlain(t *testing.T) {
	const ops = 40
	ctx := context.Background()
	for _, w := range []*workload{hotreadFloor, ckptFloor} {
		t.Run(w.name, func(t *testing.T) {
			e, err := setup(ctx, w, 3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer e.close()
			for _, r := range e.ranks {
				r.fs.Close()
			}

			plain := e.newRank(0)
			if plain.fs, err = e.c.NewFS(0, w.engine); err != nil {
				t.Fatal(err)
			}
			// Reads replay rank 0's seeded stream; checkpoints need a
			// rank of their own so the paths do not collide.
			id := 0
			if w.verify != nil {
				id = 1
			}
			traced := e.newRank(id)
			traced.tr, traced.cs = newTracer(id, time.Now()), &connStats{}
			if traced.fs, err = e.tracedEngine(id, traced.tr, traced.cs); err != nil {
				t.Fatal(err)
			}
			e.ranks = []*rankState{plain, traced}

			run := func(r *rankState) ([]byte, map[string]int64) {
				h := sha256.New()
				for i := 0; i < ops; i++ {
					n, err := w.op(ctx, e, r)
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					h.Write(r.buf[:min(n, int64(len(r.buf)))])
				}
				return h.Sum(nil), r.fs.Metrics().Snapshot().Counters
			}
			pd, pc := run(plain)
			td, tc := run(traced)
			if string(pd) != string(td) {
				t.Error("traced engine returned different bytes")
			}
			if !reflect.DeepEqual(pc, tc) {
				t.Errorf("engine counters differ:\nplain  %v\ntraced %v", pc, tc)
			}
			if w.verify != nil {
				if _, errs := w.verify(ctx, e); len(errs) > 0 {
					t.Errorf("read-back: %v", errs)
				}
			}
			if got := mergeTotals([]*tracer{traced.tr})["core.exec"].count; got != ops {
				t.Errorf("traced %d core.exec spans, want %d", got, ops)
			}
			if traced.cs.bytesIn.Load() == 0 || traced.cs.dials.Load() == 0 {
				t.Error("counting dialer saw no traffic")
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDefJSON         `json:"end_to_end"`
		PerLayer  []metricDefJSON         `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program runs %v", names, want)
	}
	check := func(kind string, got []metricDefJSON, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics listed, program reports %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: listed %+v, program reports %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

type metricDefJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}
