package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dpfs/internal/wire"
)

// span is one timed call the benchmark made into a layer. Spans of one
// closed-loop op share its op ID; Parent indexes the enclosing span
// within the op (-1 for the op's root).
type span struct {
	Name   string `json:"name"`
	Rank   int    `json:"rank"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// spanTotal accumulates every finished span of one name.
type spanTotal struct {
	count int64
	total int64 // ns
	self  int64 // ns not covered by child spans
}

// Capture limits: the traced run keeps this many spans for the trace
// file and this many exchanges and SQL statements for the offline
// wire and parser replays. Aggregates cover every op regardless.
const (
	keepSpans     = 20000
	keepExchanges = 2000
	keepSQL       = 5000
)

// tracer records one client rank's spans in memory. Calls are nested
// by a stack, so it assumes the rank issues its layer calls from one
// goroutine at a time, which a closed-loop rank with sequential
// dispatch does. A nil *tracer is valid and records nothing, which is
// how the untraced run shares the op code.
type tracer struct {
	mu     sync.Mutex
	rank   int
	epoch  time.Time
	op     int64
	cur    []span
	stack  []int
	totals map[string]*spanTotal
	counts map[string]int64
	kept   []span

	exchanges []exchange
	sql       []string
}

func newTracer(rank int, epoch time.Time) *tracer {
	return &tracer{rank: rank, epoch: epoch, totals: map[string]*spanTotal{}, counts: map[string]int64{}}
}

// reset drops everything recorded so far (the warm-up's spans).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur, t.stack, t.kept, t.exchanges, t.sql = nil, nil, nil, nil, nil
	t.totals = map[string]*spanTotal{}
	t.counts = map[string]int64{}
}

// begin opens a span named name under the innermost open span and
// returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.cur = append(t.cur, span{Name: name, Rank: t.rank, Op: t.op, Parent: parent, Start: now})
	i := len(t.cur) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur[i].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
}

// beginOp opens the root span of the next closed-loop op.
func (t *tracer) beginOp() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	return t.begin("op")
}

// endOp closes the op root, names it by the op kind, folds the op's
// spans into the per-name totals and keeps them for the trace file
// while the budget lasts.
func (t *tracer) endOp(root int, kind string) {
	if t == nil {
		return
	}
	t.end(root)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur[root].Name = "op." + kind
	self := selfTimes(t.cur)
	for i := range t.cur {
		tot := t.totals[t.cur[i].Name]
		if tot == nil {
			tot = &spanTotal{}
			t.totals[t.cur[i].Name] = tot
		}
		tot.count++
		tot.total += t.cur[i].dur()
		tot.self += self[i]
	}
	if len(t.kept)+len(t.cur) <= keepSpans {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
	t.stack = t.stack[:0]
}

// add bumps a named per-rank counter.
func (t *tracer) add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// captureExchange keeps one data-plane exchange for the wire replay.
func (t *tracer) captureExchange(x exchange) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.exchanges) < keepExchanges {
		t.exchanges = append(t.exchanges, x)
	}
	t.mu.Unlock()
}

// captureSQL keeps one catalog statement for the parser replay.
func (t *tracer) captureSQL(sql string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.sql) < keepSQL {
		t.sql = append(t.sql, sql)
	}
	t.mu.Unlock()
}

// selfTimes returns, for each span of one op, its duration minus the
// part of its interval covered by its direct children (the union of
// their intervals, clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make([]int64, len(spans))
	for i := range spans {
		out[i] = spans[i].dur() - covered(spans, children[i], spans[i].Start, spans[i].End)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the given spans'
// intervals covers.
func covered(spans []span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, j := range idx {
		a, b := max(spans[j].Start, lo), min(spans[j].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// mergeTotals sums the per-name span totals of several ranks.
func mergeTotals(ts []*tracer) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, t := range ts {
		for name, tot := range t.totals {
			o := out[name]
			o.count += tot.count
			o.total += tot.total
			o.self += tot.self
			out[name] = o
		}
	}
	return out
}

// sumPrefix adds up the totals of every span name with the prefix.
func sumPrefix(tots map[string]spanTotal, prefix string) spanTotal {
	var out spanTotal
	for name, t := range tots {
		if strings.HasPrefix(name, prefix) {
			out.count += t.count
			out.total += t.total
			out.self += t.self
		}
	}
	return out
}

// writeSpans writes the kept spans of every rank as JSON lines.
func writeSpans(path string, ts []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for i := range t.kept {
			if err := enc.Encode(&t.kept[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exchange is the shape of one data-plane request as the engine builds
// it, kept for replay through the wire codec.
type exchange struct {
	op   wire.Op
	path string
	gen  int64
	exts []wire.Extent
}
