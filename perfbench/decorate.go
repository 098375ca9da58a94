package main

import (
	"context"
	"net"
	"sync/atomic"

	"dpfs/internal/meta"
	"dpfs/internal/metadb"
	"dpfs/internal/obs"
	"dpfs/internal/server"
	"dpfs/internal/stripe"
)

// tracedRouter times every catalog call an engine makes as a
// "meta.<Method>" span. It wraps the meta.Router handed to
// core.NewFS, so the engine itself is unchanged.
type tracedRouter struct {
	inner meta.Router
	tr    *tracer
}

var _ meta.Router = (*tracedRouter)(nil)

func (r *tracedRouter) SetTraceSpan(sp *obs.Span) { r.inner.SetTraceSpan(sp) }

func (r *tracedRouter) Init() error {
	defer r.tr.end(r.tr.begin("meta.Init"))
	return r.inner.Init()
}

func (r *tracedRouter) NextGeneration(path string) (int64, error) {
	defer r.tr.end(r.tr.begin("meta.NextGeneration"))
	return r.inner.NextGeneration(path)
}

func (r *tracedRouter) RegisterServer(s meta.ServerInfo) error {
	defer r.tr.end(r.tr.begin("meta.RegisterServer"))
	return r.inner.RegisterServer(s)
}

func (r *tracedRouter) RemoveServer(name string) error {
	defer r.tr.end(r.tr.begin("meta.RemoveServer"))
	return r.inner.RemoveServer(name)
}

func (r *tracedRouter) Servers() ([]meta.ServerInfo, error) {
	defer r.tr.end(r.tr.begin("meta.Servers"))
	return r.inner.Servers()
}

func (r *tracedRouter) Server(name string) (meta.ServerInfo, error) {
	defer r.tr.end(r.tr.begin("meta.Server"))
	return r.inner.Server(name)
}

func (r *tracedRouter) ReportServerFailure(name string) error {
	defer r.tr.end(r.tr.begin("meta.ReportServerFailure"))
	return r.inner.ReportServerFailure(name)
}

func (r *tracedRouter) ReportServerOK(name string) error {
	defer r.tr.end(r.tr.begin("meta.ReportServerOK"))
	return r.inner.ReportServerOK(name)
}

func (r *tracedRouter) SetServerState(name, state string) error {
	defer r.tr.end(r.tr.begin("meta.SetServerState"))
	return r.inner.SetServerState(name, state)
}

func (r *tracedRouter) ServerHealth() ([]meta.HealthInfo, error) {
	defer r.tr.end(r.tr.begin("meta.ServerHealth"))
	return r.inner.ServerHealth()
}

func (r *tracedRouter) Mkdir(path string) error {
	defer r.tr.end(r.tr.begin("meta.Mkdir"))
	return r.inner.Mkdir(path)
}

func (r *tracedRouter) Rmdir(path string) error {
	defer r.tr.end(r.tr.begin("meta.Rmdir"))
	return r.inner.Rmdir(path)
}

func (r *tracedRouter) ReadDir(path string) ([]string, []string, error) {
	defer r.tr.end(r.tr.begin("meta.ReadDir"))
	return r.inner.ReadDir(path)
}

func (r *tracedRouter) IsDir(path string) (bool, error) {
	defer r.tr.end(r.tr.begin("meta.IsDir"))
	return r.inner.IsDir(path)
}

func (r *tracedRouter) CreateFile(fi meta.FileInfo, assign []int) error {
	defer r.tr.end(r.tr.begin("meta.CreateFile"))
	return r.inner.CreateFile(fi, assign)
}

func (r *tracedRouter) CreateReplicated(fi meta.FileInfo, assign [][]int) error {
	defer r.tr.end(r.tr.begin("meta.CreateReplicated"))
	return r.inner.CreateReplicated(fi, assign)
}

func (r *tracedRouter) LookupFile(path string) (meta.FileInfo, []int, error) {
	defer r.tr.end(r.tr.begin("meta.LookupFile"))
	return r.inner.LookupFile(path)
}

func (r *tracedRouter) LookupReplicated(path string) (meta.FileInfo, *stripe.ReplicaSet, error) {
	defer r.tr.end(r.tr.begin("meta.LookupReplicated"))
	return r.inner.LookupReplicated(path)
}

func (r *tracedRouter) UpdateDistribution(path string, servers []string, lists [][]stripe.ReplicaEntry, gen int64) error {
	defer r.tr.end(r.tr.begin("meta.UpdateDistribution"))
	return r.inner.UpdateDistribution(path, servers, lists, gen)
}

func (r *tracedRouter) Files() ([]string, error) {
	defer r.tr.end(r.tr.begin("meta.Files"))
	return r.inner.Files()
}

func (r *tracedRouter) Stat(path string) (meta.FileInfo, error) {
	defer r.tr.end(r.tr.begin("meta.Stat"))
	return r.inner.Stat(path)
}

func (r *tracedRouter) RemoveFile(path string) (meta.FileInfo, error) {
	defer r.tr.end(r.tr.begin("meta.RemoveFile"))
	return r.inner.RemoveFile(path)
}

func (r *tracedRouter) RenameFile(oldPath, newPath string) ([]string, int64, error) {
	defer r.tr.end(r.tr.begin("meta.RenameFile"))
	return r.inner.RenameFile(oldPath, newPath)
}

func (r *tracedRouter) Usage() ([]meta.ServerUsage, error) {
	defer r.tr.end(r.tr.begin("meta.Usage"))
	return r.inner.Usage()
}

func (r *tracedRouter) UsedBytes() (map[string]int64, error) {
	defer r.tr.end(r.tr.begin("meta.UsedBytes"))
	return r.inner.UsedBytes()
}

func (r *tracedRouter) FilesOnServer(name string) ([]meta.FileOnServer, error) {
	defer r.tr.end(r.tr.begin("meta.FilesOnServer"))
	return r.inner.FilesOnServer(name)
}

func (r *tracedRouter) SetSize(path string, size int64) error {
	defer r.tr.end(r.tr.begin("meta.SetSize"))
	return r.inner.SetSize(path, size)
}

func (r *tracedRouter) SetPerm(path string, perm int) error {
	defer r.tr.end(r.tr.begin("meta.SetPerm"))
	return r.inner.SetPerm(path, perm)
}

func (r *tracedRouter) SetOwner(path, owner string) error {
	defer r.tr.end(r.tr.begin("meta.SetOwner"))
	return r.inner.SetOwner(path, owner)
}

// tracedExecer times every SQL statement a catalog sends over its
// metadata-server connection as a "metadb.stmt" span and keeps the
// text for the parser replay.
type tracedExecer struct {
	inner meta.Execer
	tr    *tracer
}

func (x *tracedExecer) Exec(sql string) (*metadb.Result, error) {
	defer x.tr.end(x.tr.begin("metadb.stmt"))
	x.tr.captureSQL(sql)
	return x.inner.Exec(sql)
}

// SetTraceSpan keeps the connection's trace propagation working
// through the decorator (meta.Catalog looks for meta.SpanSetter).
func (x *tracedExecer) SetTraceSpan(sp *obs.Span) {
	if ss, ok := x.inner.(meta.SpanSetter); ok {
		ss.SetTraceSpan(sp)
	}
}

// connStats counts one engine's I/O-server connections and the
// traffic on them.
type connStats struct {
	dials, reads, writes, bytesIn, bytesOut atomic.Int64
}

func (cs *connStats) reset() {
	for _, c := range []*atomic.Int64{&cs.dials, &cs.reads, &cs.writes, &cs.bytesIn, &cs.bytesOut} {
		c.Store(0)
	}
}

// add folds another engine's counts into cs.
func (cs *connStats) add(o *connStats) {
	cs.dials.Add(o.dials.Load())
	cs.reads.Add(o.reads.Load())
	cs.writes.Add(o.writes.Load())
	cs.bytesIn.Add(o.bytesIn.Load())
	cs.bytesOut.Add(o.bytesOut.Load())
}

// countingDial is the engine's server.DialFunc in the traced run: a
// plain TCP dial whose connection counts calls and bytes.
func countingDial(cs *connStats) server.DialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		cs.dials.Add(1)
		return &countingConn{Conn: c, cs: cs}, nil
	}
}

type countingConn struct {
	net.Conn
	cs *connStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.cs.reads.Add(1)
	c.cs.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.cs.writes.Add(1)
	c.cs.bytesOut.Add(int64(n))
	return n, err
}
