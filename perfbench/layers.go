package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"dpfs/internal/cache"
	"dpfs/internal/core"
	"dpfs/internal/metadb"
	"dpfs/internal/metarepl"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/wire"
)

// counters is a flat view of every layer's own metric registries, with
// histograms as sum and count. Keys are "<source>.<metric>"; the
// per-layer figures are deltas of two such views, so the registries'
// power-of-two buckets are only ever used for means.
type counters map[string]float64

func (m counters) addRegistry(prefix string, reg *obs.Registry) {
	s := reg.Snapshot()
	for k, v := range s.Counters {
		m[prefix+k] += float64(v)
	}
	for k, h := range s.Histograms {
		m[prefix+k+".sum"] += float64(h.Sum)
		m[prefix+k+".count"] += float64(h.Count)
	}
}

// collect reads the registries of the engines (client.), the I/O
// servers (server.), the catalog primary's database (db.), every
// catalog replica's database (dbs.) and replication core (repl.), the
// netsim models' busy time and the process's CPU and allocation
// counters.
func collect(e *env) counters {
	m := counters{}
	for _, r := range e.ranks {
		m.addRegistry("client.", r.fs.Metrics())
	}
	for i, s := range e.c.IOServers {
		m.addRegistry("server.", s.Metrics())
		busy, _ := s.Model().Stats()
		m[fmt.Sprintf("netsim.busy.%d", i)] = float64(busy)
	}
	primary := max(e.c.MetaPrimary(0), 0)
	m.addRegistry("db.", e.c.ReplDBs[0][primary].Metrics())
	for _, db := range e.c.ReplDBs[0] {
		m.addRegistry("dbs.", db.Metrics())
	}
	for _, rep := range e.c.Replicas[0] {
		m.addRegistry("repl.", rep.Metrics())
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m["process.cpu_ns"] = float64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for k, v := range runtimeCounters() {
		m["process."+k] = v
	}
	return m
}

var runtimeNames = map[string]string{
	"/gc/heap/allocs:objects":    "allocs",
	"/gc/heap/allocs:bytes":      "alloc_bytes",
	"/gc/cycles/total:gc-cycles": "gc_cycles",
}

func runtimeCounters() map[string]float64 {
	samples := make([]metrics.Sample, 0, len(runtimeNames))
	for name := range runtimeNames {
		samples = append(samples, metrics.Sample{Name: name})
	}
	metrics.Read(samples)
	out := map[string]float64{}
	for _, s := range samples {
		if s.Value.Kind() == metrics.KindUint64 {
			out[runtimeNames[s.Name]] = float64(s.Value.Uint64())
		}
	}
	return out
}

// delta returns after minus before for every key of after.
func delta(before, after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sumMatching adds up the values whose key has the prefix and suffix.
func (m counters) sumMatching(prefix, suffix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, suffix) {
			s += v
		}
	}
	return s
}

// wireCost is the replay of captured exchanges through the v1 codec.
type wireCost struct {
	exchanges          int
	encodeNs, decodeNs float64
	allocs             float64
	encoded, payload   float64
}

// replayWire encodes and decodes every captured exchange (request and
// response) through the public wire functions on in-memory buffers.
// A first pass warms the buffers; the second is measured.
func replayWire(xs []exchange) wireCost {
	var maxLen int64
	for _, x := range xs {
		maxLen = max(maxLen, wire.DataBytes(x.exts))
	}
	payload := make([]byte, maxLen)
	scratch := make([]byte, maxLen+wire.RespOverhead)
	var reqBuf, respBuf bytes.Buffer
	var rd bytes.Reader
	var c wireCost
	for pass := 0; pass < 2; pass++ {
		c = wireCost{exchanges: len(xs)}
		before := runtimeCounters()
		for _, x := range xs {
			n := wire.DataBytes(x.exts)
			req := &wire.Request{Op: x.op, Path: x.path, Gen: x.gen, Extents: x.exts}
			resp := &wire.Response{N: n}
			if x.op == wire.OpWrite {
				off := int64(0)
				req.Segments = make([][]byte, len(x.exts))
				for i, e := range x.exts {
					req.Segments[i] = payload[off : off+e.Len]
					off += e.Len
				}
			} else {
				resp.Data = payload[:n]
			}
			t0 := time.Now()
			reqBuf.Reset()
			respBuf.Reset()
			werr := wire.WriteRequest(&reqBuf, req)
			werr = firstErr(werr, wire.WriteResponse(&respBuf, resp))
			t1 := time.Now()
			rd.Reset(reqBuf.Bytes())
			_, rerr := wire.ReadRequest(&rd)
			rd.Reset(respBuf.Bytes())
			_, rerr2 := wire.ReadResponseInto(&rd, scratch)
			t2 := time.Now()
			if err := firstErr(werr, firstErr(rerr, rerr2)); err != nil {
				panic(fmt.Sprintf("wire replay of a well-formed exchange failed: %v", err))
			}
			c.encodeNs += float64(t1.Sub(t0))
			c.decodeNs += float64(t2.Sub(t1))
			c.encoded += float64(reqBuf.Len() + respBuf.Len())
			c.payload += float64(n)
		}
		c.allocs = runtimeCounters()["allocs"] - before["allocs"]
	}
	return c
}

// replayParse parses every captured SQL statement with metadb.Parse
// and returns the mean time per statement (a warm-up pass first).
func replayParse(sqls []string) time.Duration {
	if len(sqls) == 0 {
		return 0
	}
	var total time.Duration
	for pass := 0; pass < 2; pass++ {
		total = 0
		for _, s := range sqls {
			t0 := time.Now()
			if _, err := metadb.Parse(s); err != nil {
				panic(fmt.Sprintf("parse replay of a statement the catalog ran failed: %v", err))
			}
			total += time.Since(t0)
		}
	}
	return total / time.Duration(len(sqls))
}

// traceRun is everything the traced run measured.
type traceRun struct {
	plain, traced *phase
	plainDelta    counters // process counters over the untraced phase
	d             counters // registry deltas over the traced phase
	tracers       []*tracer
	conns         connStats
	wire          wireCost
	parse         time.Duration
}

// layerMetrics derives the per-layer figures. Times are µs per op
// unless the name says otherwise; "per exchange" means per data-plane
// request to an I/O server.
func layerMetrics(t *traceRun) map[string]float64 {
	ops := float64(t.traced.ops)
	d := t.d
	tots := mergeTotals(t.tracers)
	counts := map[string]float64{}
	for _, tr := range t.tracers {
		for k, v := range tr.counts {
			counts[k] += float64(v)
		}
	}
	perOpUs := func(ns float64) float64 { return per(ns, ops) / 1e3 }
	m := map[string]float64{}

	// stripe
	m["stripe.plan_us"] = perOpUs(float64(tots["stripe.plan"].total + tots["stripe.combine"].total))
	m["stripe.bricks_per_op"] = per(counts["stripe.bricks"], ops)
	m["stripe.requests_per_op"] = per(counts["stripe.requests"], ops)

	// core
	exchanges := d["client."+core.MetricRequestLatency+".count"]
	exchangeUs := d["client."+core.MetricRequestLatency+".sum"]
	execNs := float64(tots["core.exec"].total)
	m["core.exec_us"] = perOpUs(execNs)
	m["core.self_us"] = perOpUs(execNs - exchangeUs*1e3)
	m["core.exchanges_per_op"] = per(d["client."+core.MetricRequests], ops)
	m["core.moved_per_useful"] = per(d["client."+core.MetricBytesMoved], d["client."+core.MetricBytesUseful])

	// cache
	dh, dm := d["client."+cache.MetricDataHits], d["client."+cache.MetricDataMisses]
	mh, mm := d["client."+cache.MetricMetaHits], d["client."+cache.MetricMetaMisses]
	m["cache.data_hit_ratio"] = per(dh, dh+dm)
	m["cache.meta_hit_ratio"] = per(mh, mh+mm)
	m["cache.evictions_per_op"] = per(d["client."+cache.MetricDataEvictions], ops)

	// server
	readH, writeH := "server."+server.OpMetric(wire.OpRead), "server."+server.OpMetric(wire.OpWrite)
	handlerUs := per(d[readH+".sum"]+d[writeH+".sum"], d[readH+".count"]+d[writeH+".count"])
	m["server.exchange_us"] = per(exchangeUs, exchanges)
	m["server.handler_us"] = handlerUs
	m["server.transport_us"] = m["server.exchange_us"] - handlerUs
	m["server.subfile_io_us"] = per(d["server."+server.MetricSubfileIO+".sum"], d["server."+server.MetricSubfileIO+".count"])
	m["server.conns_opened"] = float64(t.conns.dials.Load())
	m["server.bytes_per_op"] = per(float64(t.conns.bytesIn.Load()+t.conns.bytesOut.Load()), ops)
	m["server.io_calls_per_op"] = per(float64(t.conns.reads.Load()+t.conns.writes.Load()), ops)

	// netsim
	m["netsim.wait_us"] = per(d["server."+server.MetricNetsimWait+".sum"], ops)
	busiest := 0.0
	for k, v := range d {
		if strings.HasPrefix(k, "netsim.busy.") {
			busiest = max(busiest, v)
		}
	}
	m["netsim.busy_frac_max"] = per(busiest, float64(t.traced.elapsed))

	// wire: per-exchange replay cost scaled by the measured exchanges
	xPerOp := m["core.exchanges_per_op"]
	w := t.wire
	m["wire.encode_us_per_op"] = per(w.encodeNs, float64(w.exchanges)) / 1e3 * xPerOp
	m["wire.decode_us_per_op"] = per(w.decodeNs, float64(w.exchanges)) / 1e3 * xPerOp
	m["wire.allocs_per_op"] = per(w.allocs, float64(w.exchanges)) * xPerOp
	m["wire.frame_overhead"] = per(w.encoded-w.payload, w.payload)

	// meta
	m["meta.lookup_us"] = perOpUs(float64(sumNames(tots, "meta.LookupReplicated", "meta.LookupFile", "meta.Stat",
		"meta.ReadDir", "meta.IsDir", "meta.Files", "meta.Server", "meta.Servers").total))
	m["meta.create_us"] = perOpUs(float64(sumNames(tots, "meta.CreateFile", "meta.CreateReplicated").total))
	m["meta.remove_us"] = perOpUs(float64(tots["meta.RemoveFile"].total))
	m["meta.nextgen_us"] = perOpUs(float64(tots["meta.NextGeneration"].total))
	m["meta.usedbytes_us"] = perOpUs(float64(tots["meta.UsedBytes"].total))
	m["meta.calls_per_op"] = per(float64(sumPrefix(tots, "meta.").count), ops)

	// metadb
	stmt := tots["metadb.stmt"]
	execUs := d.sumMatching("db.query_", "_us.sum")
	m["metadb.stmt_us"] = perOpUs(float64(stmt.total))
	m["metadb.exec_us"] = per(execUs, ops)
	m["metadb.rpc_us"] = m["metadb.stmt_us"] - m["metadb.exec_us"]
	m["metadb.stmts_per_op"] = per(float64(stmt.count), ops)
	m["metadb.parse_us"] = us(t.parse) * m["metadb.stmts_per_op"]
	m["metadb.fsyncs_per_op"] = per(d["dbs."+metadb.MetricWALFsyncs], ops)
	m["metadb.wal_bytes_per_op"] = per(d["db."+metadb.MetricWALBytes], ops)
	m["metadb.batch_size"] = per(d["db."+metadb.MetricWALBatchSize+".sum"], d["db."+metadb.MetricWALBatchSize+".count"])

	// metarepl
	m["metarepl.records_shipped_per_op"] = per(d["repl."+metarepl.MetricRecordsShipped], ops)
	m["metarepl.ack_timeouts"] = d["repl."+metarepl.MetricAckTimeouts]

	// process, over the untraced phase of the same run
	pOps := float64(t.plain.ops)
	pd := t.plainDelta
	m["process.cpu_ms_per_op"] = per(pd["process.cpu_ns"], pOps) / 1e6
	m["process.allocs_per_op"] = per(pd["process.allocs"], pOps)
	m["process.alloc_bytes_per_op"] = per(pd["process.alloc_bytes"], pOps)
	m["process.gc_cycles"] = pd["process.gc_cycles"]

	// trace
	roots := sumPrefix(tots, "op.")
	m["trace.unattributed_frac"] = per(float64(roots.self), float64(roots.total))
	plainRate := per(float64(t.plain.ops), t.plain.elapsed.Seconds())
	tracedRate := per(float64(t.traced.ops), t.traced.elapsed.Seconds())
	m["trace.overhead_frac"] = 1 - per(tracedRate, plainRate)
	return m
}

func sumNames(tots map[string]spanTotal, names ...string) spanTotal {
	var out spanTotal
	for _, n := range names {
		t := tots[n]
		out.count += t.count
		out.total += t.total
		out.self += t.self
	}
	return out
}
