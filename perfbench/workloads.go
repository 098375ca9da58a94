package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"dpfs/internal/cluster"
	"dpfs/internal/core"
	"dpfs/internal/metarepl"
	"dpfs/internal/stripe"
	"dpfs/internal/wire"
)

// nproc is the number of closed-loop client ranks: each has its own
// engine and waits for its op before issuing the next.
const nproc = 2

// workload is one named, seeded, closed-loop load on an in-process
// cluster. It sets only the paper's knobs (level, tile, HPF pattern,
// Combine/Stagger, replicas) and cache budgets; transport and dispatch
// stay on engine defaults.
type workload struct {
	name    string
	regime  string // "shaped" (netsim device models) or "unshaped"
	cluster func() cluster.Config
	engine  core.Options
	// initRank sets up a rank's own seeded state; nil when it has none.
	initRank func(e *env, r *rankState)
	// prepare creates, fills and preloads the workload's files; it is
	// part of set-up.
	prepare func(ctx context.Context, e *env) error
	// op runs one closed-loop op on rank r. It brackets the timed part
	// with r.startOp and r.stopOp and checks results after stopOp.
	op func(ctx context.Context, e *env, r *rankState) (useful int64, err error)
	// verify re-reads what the run wrote, untimed, after the measured
	// phase; nil when op already checks everything it touches.
	verify func(ctx context.Context, e *env) (checked int64, errs []error)
}

var workloads = []*workload{colreadShaped, ckptFloor, hotreadFloor, metaChurn}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// combined is the engine setting of the paper's "Combined" bars.
var combined = core.Options{Combine: true, Stagger: true}

// --- colread-shaped ----------------------------------------------------

const (
	colDim  = 512
	colTile = 64
)

// colreadShaped reads each rank's (*,BLOCK) column block of a 512²
// float64 multidim file on the paper's mixed class-1/class-3 testbed:
// modelled device time dominates.
var colreadShaped = &workload{
	name:   "colread-shaped",
	regime: "shaped",
	cluster: func() cluster.Config {
		return cluster.Config{Servers: cluster.Mixed(4)}
	},
	engine: combined,
	prepare: func(ctx context.Context, e *env) error {
		e.dims = []int64{colDim, colDim}
		return e.createShared(ctx, "/colread", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{colTile, colTile}})
	},
	op: func(ctx context.Context, e *env, r *rankState) (int64, error) {
		width := int64(colDim / nproc)
		sec := stripe.NewSection([]int64{0, int64(r.id) * width}, []int64{colDim, width})
		return e.readShared(ctx, r, "/colread", sec)
	},
}

// --- hotread-floor -----------------------------------------------------

const (
	hotDim    = 2048
	hotTile   = 64
	hotBlock  = 128
	hotBlocks = (hotDim / hotBlock) * (hotDim / hotBlock)
	hotZipfS  = 1.1
	hotCache  = 8 << 20
)

// hotreadFloor reads Zipf-chosen 128² blocks of a 32 MiB file through
// an 8 MiB client data cache on native-speed servers.
var hotreadFloor = &workload{
	name:   "hotread-floor",
	regime: "unshaped",
	cluster: func() cluster.Config {
		return cluster.Config{Servers: cluster.Uniform(4)}
	},
	engine: core.Options{Combine: true, Stagger: true, CacheBytes: hotCache, MetaTTL: time.Second},
	initRank: func(e *env, r *rankState) {
		r.zipf = rand.NewZipf(r.rng, hotZipfS, 1, hotBlocks-1)
	},
	prepare: func(ctx context.Context, e *env) error {
		e.dims = []int64{hotDim, hotDim}
		// Zipf ranks map to blocks through a seeded permutation, so the
		// hot set is spread over the servers rather than one corner.
		e.perm = rand.New(rand.NewSource(e.seed ^ 0x5eed)).Perm(hotBlocks)
		return e.createShared(ctx, "/hot", core.Hint{Level: stripe.LevelMultidim, Tile: []int64{hotTile, hotTile}})
	},
	op: func(ctx context.Context, e *env, r *rankState) (int64, error) {
		blk := int64(e.perm[r.zipf.Uint64()])
		per := int64(hotDim / hotBlock)
		sec := stripe.NewSection([]int64{blk / per * hotBlock, blk % per * hotBlock}, []int64{hotBlock, hotBlock})
		return e.readShared(ctx, r, "/hot", sec)
	},
}

// --- ckpt-floor --------------------------------------------------------

const (
	ckptRows  = 512
	ckptCols  = 1024 // 512×1024 float64 = 4 MiB
	ckptKeep  = 4    // live checkpoints per rank
	ckptChunk = 4    // (BLOCK,*) over 4 chunks of 1 MiB
)

// ckptFloor writes replicated (BLOCK,*) checkpoints on native-speed
// servers and retires each rank's checkpoint from ckptKeep steps back.
var ckptFloor = &workload{
	name:   "ckpt-floor",
	regime: "unshaped",
	cluster: func() cluster.Config {
		return cluster.Config{Servers: cluster.Uniform(4)}
	},
	engine: combined,
	initRank: func(e *env, r *rankState) {
		r.pool = make([][]byte, ckptKeep)
		for i := range r.pool {
			r.pool[i] = make([]byte, ckptRows*ckptCols*8)
			r.rng.Read(r.pool[i])
		}
	},
	prepare: func(ctx context.Context, e *env) error {
		e.dims = []int64{ckptRows, ckptCols}
		return nil
	},
	op: func(ctx context.Context, e *env, r *rankState) (int64, error) {
		step := r.step
		r.step++
		data := r.pool[step%ckptKeep]
		binary.LittleEndian.PutUint64(data, uint64(step))
		hint := core.Hint{
			Level:    stripe.LevelArray,
			Pattern:  []stripe.Dist{stripe.DistBlock, stripe.DistStar},
			Grid:     []int64{ckptChunk, 1},
			Replicas: 2,
		}
		r.startOp()
		f, err := r.create(ckptPath(r.id, step), 8, e.dims, hint)
		if err == nil {
			err = r.access(ctx, f, stripe.FullSection(e.dims), data, true)
			err = firstErr(err, r.close(f))
		}
		if err == nil && step >= ckptKeep {
			err = r.remove(ctx, ckptPath(r.id, step-ckptKeep))
		}
		r.stopOp("ckpt")
		return int64(len(data)), err
	},
	verify: func(ctx context.Context, e *env) (int64, []error) {
		fs, err := e.c.NewFS(nproc, e.w.engine)
		if err != nil {
			return 1, []error{err}
		}
		defer fs.Close()
		var checked int64
		var errs []error
		buf := make([]byte, ckptRows*ckptCols*8)
		for _, r := range e.ranks {
			for step := max(0, r.step-ckptKeep); step < r.step; step++ {
				checked++
				path := ckptPath(r.id, step)
				if err := readWhole(ctx, fs, path, buf); err != nil {
					errs = append(errs, err)
					continue
				}
				want := r.pool[step%ckptKeep]
				if binary.LittleEndian.Uint64(buf) != uint64(step) || !bytes.Equal(buf[8:], want[8:]) {
					errs = append(errs, fmt.Errorf("%s: read-back differs from the written checkpoint", path))
				}
			}
		}
		return checked, errs
	},
}

func ckptPath(rank, step int) string { return fmt.Sprintf("/ckpt-r%d-%06d", rank, step) }

// --- meta-churn --------------------------------------------------------

const (
	churnDir   = "/churn"
	churnFiles = 128 // catalog population, split evenly over the ranks
	churnBytes = 4096
)

// metaChurn is small-file churn against a durable, 3-way replicated
// catalog: most op time is catalog work.
var metaChurn = &workload{
	name:   "meta-churn",
	regime: "unshaped",
	cluster: func() cluster.Config {
		return cluster.Config{
			Servers:         cluster.Uniform(4),
			DurableMeta:     true,
			MetaSync:        true,
			MetaGroupCommit: true,
			MetaReplicas:    3,
			MetaReplAck:     metarepl.AckMajority,
		}
	},
	engine: combined,
	initRank: func(e *env, r *rankState) {
		r.contents = map[string][]byte{}
	},
	prepare: func(ctx context.Context, e *env) error {
		fs, err := e.c.NewFS(nproc, e.w.engine)
		if err != nil {
			return err
		}
		defer fs.Close()
		if err := fs.Catalog().Mkdir(churnDir); err != nil {
			return err
		}
		for _, r := range e.ranks {
			for i := 0; i < churnFiles/nproc; i++ {
				path, data := r.nextChurnFile()
				// The preload skips the capacity check to keep set-up
				// short; measured creates keep it.
				f, err := fs.Create(path, 1, []int64{churnBytes}, core.Hint{NoCapacityCheck: true})
				if err != nil {
					return err
				}
				err = f.WriteSection(ctx, stripe.FullSection([]int64{churnBytes}), data)
				if err = firstErr(err, f.Close()); err != nil {
					return err
				}
				r.keep(path, data)
			}
		}
		return nil
	},
	op: churnOp,
}

// nextChurnFile names the rank's next small file and generates its
// seeded contents; the caller creates it and then calls keep.
func (r *rankState) nextChurnFile() (string, []byte) {
	path := fmt.Sprintf("%s/r%d-%06d", churnDir, r.id, r.next)
	r.next++
	data := make([]byte, churnBytes)
	r.rng.Read(data)
	return path, data
}

// keep records a created file as live, with the contents reads of it
// must return.
func (r *rankState) keep(path string, data []byte) {
	r.live = append(r.live, path)
	r.contents[path] = data
}

// churnOp draws one op of the mix: 60% open+read, 15% stat, 5%
// readdir, 10% create+write and 10% remove. Creates and removes
// alternate so each rank holds churnFiles/nproc or one fewer files;
// ranks touch only their own files, so no op races another rank's
// remove.
func churnOp(ctx context.Context, e *env, r *rankState) (int64, error) {
	full := stripe.FullSection([]int64{churnBytes})
	draw := r.rng.Float64()
	pick := r.live[r.rng.Intn(len(r.live))]
	switch {
	case draw < 0.60:
		r.startOp()
		f, err := r.open(pick)
		if err == nil {
			err = r.access(ctx, f, full, r.buf[:churnBytes], false)
			err = firstErr(err, r.close(f))
		}
		r.stopOp("read")
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(r.buf[:churnBytes], r.contents[pick]) {
			return 0, fmt.Errorf("%s: read returned wrong bytes", pick)
		}
		return churnBytes, nil
	case draw < 0.75:
		r.startOp()
		i := r.tr.begin("core.stat")
		fi, err := r.fs.Stat(pick)
		r.tr.end(i)
		r.stopOp("stat")
		if err == nil && fi.Size != churnBytes {
			err = fmt.Errorf("%s: stat size %d, want %d", pick, fi.Size, churnBytes)
		}
		return 0, err
	case draw < 0.80:
		r.startOp()
		_, files, err := r.fs.Catalog().ReadDir(churnDir)
		r.stopOp("readdir")
		if err != nil {
			return 0, err
		}
		return 0, checkListed(files, r.live)
	}
	if len(r.live) < churnFiles/nproc {
		path, data := r.nextChurnFile()
		r.startOp()
		f, err := r.create(path, 1, []int64{churnBytes}, core.Hint{})
		if err == nil {
			err = r.access(ctx, f, full, data, true)
			err = firstErr(err, r.close(f))
		}
		r.stopOp("create")
		if err != nil {
			return 0, err
		}
		r.keep(path, data)
		return churnBytes, nil
	}
	i := r.rng.Intn(len(r.live))
	path := r.live[i]
	r.live[i] = r.live[len(r.live)-1]
	r.live = r.live[:len(r.live)-1]
	delete(r.contents, path)
	r.startOp()
	err := r.remove(ctx, path)
	r.stopOp("remove")
	return 0, err
}

// checkListed reports a live file missing from a directory listing.
func checkListed(files, live []string) error {
	seen := make(map[string]bool, len(files))
	for _, f := range files {
		seen[f] = true
	}
	for _, p := range live {
		if name := p[len(churnDir)+1:]; !seen[name] && !seen[p] {
			return fmt.Errorf("readdir %s: live file %s not listed", churnDir, p)
		}
	}
	return nil
}

// --- shared-file helpers ----------------------------------------------

// createShared generates the seeded contents of a float64 array of
// e.dims and writes it as one file; readShared checks reads against it.
func (e *env) createShared(ctx context.Context, path string, hint core.Hint) error {
	e.data = make([]byte, e.dims[0]*e.dims[1]*8)
	rand.New(rand.NewSource(e.seed)).Read(e.data)
	fs, err := e.c.NewFS(nproc, e.w.engine)
	if err != nil {
		return err
	}
	defer fs.Close()
	f, err := fs.Create(path, 8, e.dims, hint)
	if err != nil {
		return err
	}
	err = f.WriteSection(ctx, stripe.FullSection(e.dims), e.data)
	return firstErr(err, f.Close())
}

// readShared is one read op on the shared file: Open, ReadSection,
// Close, then an untimed comparison with the expected bytes.
func (e *env) readShared(ctx context.Context, r *rankState, path string, sec stripe.Section) (int64, error) {
	n := sec.Bytes(8)
	buf := r.buf[:n]
	r.startOp()
	f, err := r.open(path)
	if err == nil {
		err = r.access(ctx, f, sec, buf, false)
		err = firstErr(err, r.close(f))
	}
	r.stopOp("read")
	if err != nil {
		return 0, err
	}
	return n, checkSection(e.data, e.dims, sec, buf)
}

// checkSection compares a 2-D float64 section's packed bytes with the
// same region of the row-major array full.
func checkSection(full []byte, dims []int64, sec stripe.Section, buf []byte) error {
	row := sec.Count[1] * 8
	for i := int64(0); i < sec.Count[0]; i++ {
		off := ((sec.Start[0]+i)*dims[1] + sec.Start[1]) * 8
		if !bytes.Equal(buf[i*row:(i+1)*row], full[off:off+row]) {
			return fmt.Errorf("section %v: row %d differs from the written data", sec, sec.Start[0]+i)
		}
	}
	return nil
}

// readWhole reads a whole 2-D file into buf.
func readWhole(ctx context.Context, fs *core.FS, path string, buf []byte) error {
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	err = f.ReadSection(ctx, stripe.FullSection(f.Info().Geometry.Dims), buf)
	return firstErr(err, f.Close())
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// --- per-rank op plumbing ---------------------------------------------

// rankState is one client rank: its engine, its seeded random stream
// and the workload state that outlives an engine swap.
type rankState struct {
	id  int
	rng *rand.Rand
	fs  *core.FS
	tr  *tracer // nil in untraced runs
	cs  *connStats
	buf []byte

	t0   time.Time
	root int
	lat  time.Duration
	kind string

	zipf     *rand.Zipf        // hotread-floor
	step     int               // ckpt-floor
	pool     [][]byte          // ckpt-floor
	next     int               // meta-churn
	live     []string          // meta-churn
	contents map[string][]byte // meta-churn
}

// startOp starts the op's clock and, when tracing, its root span.
func (r *rankState) startOp() {
	r.root = r.tr.beginOp()
	r.t0 = time.Now()
}

// stopOp stops the op's clock; kind names the op in the trace.
func (r *rankState) stopOp(kind string) {
	r.lat = time.Since(r.t0)
	r.kind = kind
	r.tr.endOp(r.root, kind)
}

func (r *rankState) open(path string) (*core.File, error) {
	defer r.tr.end(r.tr.begin("core.open"))
	return r.fs.Open(path)
}

func (r *rankState) create(path string, elem int64, dims []int64, hint core.Hint) (*core.File, error) {
	defer r.tr.end(r.tr.begin("core.create"))
	return r.fs.Create(path, elem, dims, hint)
}

func (r *rankState) close(f *core.File) error {
	defer r.tr.end(r.tr.begin("core.close"))
	return f.Close()
}

func (r *rankState) remove(ctx context.Context, path string) error {
	defer r.tr.end(r.tr.begin("core.remove"))
	return r.fs.Remove(ctx, path)
}

// access moves one section. Untraced it is ReadSection/WriteSection;
// traced it is the same work split at the layer boundaries:
// Geometry.PlanSection, then the request grouping the engine will do
// (stripe.Combine/Stagger, timed separately), then File.ExecutePlan.
func (r *rankState) access(ctx context.Context, f *core.File, sec stripe.Section, buf []byte, write bool) error {
	if r.tr == nil {
		if write {
			return f.WriteSection(ctx, sec, buf)
		}
		return f.ReadSection(ctx, sec, buf)
	}
	i := r.tr.begin("stripe.plan")
	plan, err := f.Geometry().PlanSection(sec)
	r.tr.end(i)
	if err != nil {
		return err
	}
	i = r.tr.begin("stripe.combine")
	reqs := requestsOf(f, plan, r.fs.Options(), r.id, write)
	r.tr.end(i)
	r.tr.add("stripe.bricks", int64(len(plan)))
	r.tr.add("stripe.requests", int64(len(reqs)))
	for j := range reqs {
		r.tr.captureExchange(exchangeOf(f, &reqs[j], r.fs.Options(), write))
	}
	i = r.tr.begin("core.exec")
	err = f.ExecutePlan(ctx, plan, buf, write)
	r.tr.end(i)
	return err
}

// requestsOf groups a plan into per-server requests the way the
// engine does: per brick, or combined (and staggered by rank); a
// replicated write sends every replica rank's requests.
func requestsOf(f *core.File, plan []stripe.BrickIO, opts core.Options, rank int, write bool) []stripe.Request {
	rs := f.Replicas()
	copies := 1
	if write {
		copies = rs.Replicas()
	}
	var out []stripe.Request
	for k := 0; k < copies; k++ {
		assign := rs.RankAssignment(k)
		if !opts.Combine {
			out = append(out, stripe.PerBrick(plan, assign)...)
			continue
		}
		reqs := stripe.Combine(plan, assign)
		if opts.Stagger {
			reqs = stripe.Stagger(reqs, rank, len(f.Info().Servers))
		}
		out = append(out, reqs...)
	}
	return out
}

// exchangeOf builds the wire extents of one request as the engine
// does: whole bricks for reads (the paper's access model), merged
// segments otherwise. The engine merges in brick-offset order; the
// full-chunk and linear sections written here already plan in that
// order.
func exchangeOf(f *core.File, req *stripe.Request, opts core.Options, write bool) exchange {
	g := f.Geometry()
	slot := g.SlotBytes()
	x := exchange{op: wire.OpRead, path: f.Info().Path, gen: f.Info().Generation}
	if write {
		x.op = wire.OpWrite
	}
	for _, b := range req.Bricks {
		base := f.Replicas().SlotOn(b.Brick, req.Server) * slot
		if !write && !opts.ExactReads {
			x.exts = append(x.exts, wire.Extent{Off: base, Len: g.BrickBytesOf(b.Brick)})
			continue
		}
		for _, s := range b.Segs {
			n := len(x.exts)
			if n > 0 && x.exts[n-1].Off+x.exts[n-1].Len == base+s.BrickOff {
				x.exts[n-1].Len += s.Len
			} else {
				x.exts = append(x.exts, wire.Extent{Off: base + s.BrickOff, Len: s.Len})
			}
		}
	}
	return x
}
