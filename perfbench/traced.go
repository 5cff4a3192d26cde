package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/durable"
	"e2efair/internal/flow"
	"e2efair/internal/serve"
)

// daemonSnapshotEvery mirrors fairallocd's -snapshot-every default,
// so the in-process engine and the replay snapshot on its cadence.
const daemonSnapshotEvery = 4096

// inproc runs ops against a serve.Engine in this process, with a span
// around each call and its await.
type inproc struct {
	eng     *serve.Engine
	tr      *tracer
	pass    string
	index   map[*op]int // op → index in its pass, for span ids
	shardOf []int       // node → shard, the engine's own partition
	mu      sync.Mutex
	owner   map[string]int // flow → shard
}

func newInproc(eng *serve.Engine, wd *world, tr *tracer) *inproc {
	return &inproc{eng: eng, tr: tr, shardOf: wd.shardOf, owner: make(map[string]int)}
}

// bind names the pass and op indices of the next run.
func (p *inproc) bind(pass string, ops []op) {
	p.pass = pass
	p.index = make(map[*op]int, len(ops))
	for i := range ops {
		p.index[&ops[i]] = i
	}
}

func (p *inproc) do(o *op) reply {
	id := flow.ID(o.ID)
	start := p.tr.now()
	var err error
	var shard int
	switch o.Kind {
	case opRegister:
		err = <-p.eng.RegisterAsync(serve.FlowSpec{ID: id, Weight: o.Flow.Weight, Path: o.Flow.Path})
		shard = p.shardOf[o.Flow.Path[0]]
		p.mu.Lock()
		p.owner[o.ID] = shard
		p.mu.Unlock()
	case opRemove:
		err = <-p.eng.RemoveAsync(id)
		p.mu.Lock()
		shard = p.owner[o.ID]
		p.mu.Unlock()
	default:
		_, _, ok := p.eng.GetShare(id)
		if !ok {
			err = fmt.Errorf("GetShare %s: not published", id)
		}
	}
	end := p.tr.now()
	p.tr.add(span{Name: "serve." + o.Kind.String(), Pass: p.pass, Start: start, End: end, Parent: -1, Op: p.index[o], Batch: -1})
	if err != nil {
		return reply{status: http.StatusInternalServerError, err: err}
	}
	r := reply{status: http.StatusOK, shard: shard}
	switch o.Kind {
	case opRegister:
		r.status = http.StatusCreated
	case opRemove:
		r.status = http.StatusNoContent
	}
	if o.Kind != opRead {
		r.epoch = p.eng.Snapshot(shard).Epoch
	}
	return r
}

// runTraced is the --trace 1 run. It repeats the untraced run's
// preload and fixed-rate ops three times: over HTTP untraced (the
// baseline for tracing overhead and http_self), over HTTP with a span
// per request, and in process against serve.Engine with spans around
// each call. It then replays every committed in-process batch through
// the pricing pipeline's public calls as child spans.
func runTraced(e *env, w *workload, seed int64, seconds float64) (*report, error) {
	rep := newReport()
	pl := planFor(seconds)
	wd, err := w.newWorld()
	if err != nil {
		return nil, err
	}
	spec, err := writeSpec(e, wd)
	if err != nil {
		return nil, err
	}
	// The passes replay the first half of the untraced run's fixed
	// phase: the same seeded ops, as many as the time allows.
	fixedOps := func(rot *rotation) []op {
		return rot.schedule(rand.New(rand.NewSource(seed^saltFixed)), w.FixedRate, w.ReadsPerWrite, pl.traced)
	}
	tr := newTracer()

	// Pass 1: HTTP, untraced.
	s, _, err := setUp(e, w, wd, spec, seed, dataDirFor(e, w, "http"), rep)
	if err != nil {
		return nil, err
	}
	ops := fixedOps(s.rot)
	cpu0, err := s.d.cpuSeconds()
	if err != nil {
		s.close()
		return nil, err
	}
	samples, _ := runOpen(s.c, e.conns, ops, 0, nil)
	cpu1, err := s.d.cpuSeconds()
	if err != nil {
		s.close()
		return nil, err
	}
	untraced := summarize(samples, pl.traced.Seconds())
	rep.count(untraced)
	sv, err := verifyLive(s, w, wd, rep)
	s.close()
	if err != nil {
		return nil, err
	}
	rep.set("fairallocd.cpu_ms_per_kop", 1000*(cpu1-cpu0)/(float64(len(ops))/1000))
	rep.set("loadgen.lag_p99_ms", tailOf(untraced.lag))
	checkLag(rep, w, untraced)

	// Pass 2: HTTP with a client span per request.
	s, _, err = setUp(e, w, wd, spec, seed, dataDirFor(e, w, "http-traced"), rep)
	if err != nil {
		return nil, err
	}
	ops = fixedOps(s.rot)
	index := make(map[*op]int, len(ops))
	for i := range ops {
		index[&ops[i]] = i
	}
	base := tr.now()
	samples, _ = runOpen(s.c, e.conns, ops, 0, func(sm *sample) {
		tr.add(span{Name: "http." + sm.op.Kind.String(), Pass: "http", Start: base + int64(sm.sent), End: base + int64(sm.done),
			Parent: -1, Op: index[sm.op], Batch: -1})
	})
	traced := summarize(samples, pl.traced.Seconds())
	rep.count(traced)
	s.close()
	rep.set("fairallocd.status_429", float64(untraced.status429+traced.status429))
	rep.set("fairallocd.status_5xx", float64(untraced.status5xx+traced.status5xx))
	rep.set("trace.overhead_ms", traced.writes.median()-untraced.writes.median())

	// Pass 3: in process, under the daemon's default GC pacing rather
	// than the generator's, so the engine pays what it pays in
	// fairallocd.
	gc := debug.SetGCPercent(100)
	ip, err := runInproc(e, w, wd, seed, fixedOps, tr, rep)
	debug.SetGCPercent(gc)
	if err != nil {
		return nil, err
	}
	rep.set("fairallocd.http_self_ms", untraced.writes.median()-ip.writes.median())

	// Replay the committed batches through the pricing pipeline.
	rp, err := replay(e, w, wd, ip, tr)
	if err != nil {
		return nil, err
	}
	rp.record(rep)

	// Attribution: where the socket write p50 went.
	queue := newDist(ip.queued())
	wait := newDist(rp.waits())
	stages := rp.perOpStages()
	rep.set("loadgen.queue_ms", queue.median())
	rep.set("serve.wait_ms", wait.median())
	sum := rep.values["fairallocd.http_self_ms"] + queue.median() + wait.median()
	for _, st := range stages {
		sum += st.d.median()
	}
	p50 := untraced.writes.median()
	rep.set("attrib.unattributed_ms", p50-sum)
	fmt.Fprintf(e.out, "== %s attribution of write_p50_ms %.4f ms (seed=%d) ==\n", w.Name, p50, seed)
	fmt.Fprintf(e.out, "  %-24s %10.4f ms\n", "fairallocd.http_self", rep.values["fairallocd.http_self_ms"])
	fmt.Fprintf(e.out, "  %-24s %10.4f ms\n", "loadgen.queue", queue.median())
	fmt.Fprintf(e.out, "  %-24s %10.4f ms\n", "serve.wait", wait.median())
	for _, st := range stages {
		fmt.Fprintf(e.out, "  %-24s %10.4f ms\n", st.name, st.d.median())
	}
	fmt.Fprintf(e.out, "  %-24s %10.4f ms (%.1f%% of write_p50_ms)\n", "unattributed", p50-sum, 100*(p50-sum)/p50)
	lp := rp.contentionAndLP()
	fmt.Fprintf(e.out, "  contention + core.delta p50 %.4f ms = %.1f%% of write_p50_ms\n", lp, 100*lp/p50)

	// Phase 2 with allocation counting.
	so, err := simulate([]served{sv}, seed, w.SimSeconds, false, true)
	if err != nil {
		return nil, err
	}
	rep.fail(so.fails...)
	rep.set("sim.allocs_per_pkt", so.allocsPerPkt)
	rep.set("sim.gc_cycles", float64(so.gcCycles))
	rep.set("sim.delivered_pkts", float64(so.delivered))
	rep.set("mac.exchanges", float64(so.exchanges))
	rep.set("mac.collision_ratio", float64(so.collisions)/float64(max(so.exchanges+so.collisions, 1)))

	fmt.Fprintf(e.out, "== %s spans (seed=%d) ==\n", w.Name, seed)
	printSpanTable(e.out, summarizeSpans(tr.spans))
	path := filepath.Join(e.traces, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := writeSpans(path, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.out, "  %d spans written to %s\n", len(tr.spans), path)
	return rep, nil
}

// inprocPass is what the in-process pass leaves for the replay: every
// write op with the shard and epoch of the batch that committed it.
type inprocPass struct {
	pre, samples []sample // preload and fixed-rate ops
	writes       dist     // fixed-phase write latency from the scheduled time, ms
}

func runInproc(e *env, w *workload, wd *world, seed int64, fixedOps func(*rotation) []op, tr *tracer, rep *report) (*inprocPass, error) {
	cfg := serve.Config{Topo: wd.topo}
	if w.Durable {
		store, err := durable.Open(filepath.Join(e.work, "data-inproc"),
			durable.Options{Policy: durable.FsyncAlways, SnapshotEvery: daemonSnapshotEvery})
		if err != nil {
			return nil, err
		}
		cfg.Durable = store
	}
	eng, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ex := newInproc(eng, wd, tr)
	rot := newRotation(wd, seed)
	ip := &inprocPass{}
	pre := rot.preload(w.Population)
	ex.bind("preload", pre)
	ip.pre, _ = runOpen(ex, e.conns, pre, 0, nil)
	rep.count(summarize(ip.pre, 0))

	ops := fixedOps(rot)
	ex.bind("serve", ops)
	st0 := eng.Stats()
	ip.samples, _ = runOpen(ex, e.conns, ops, 0, nil)
	st1 := eng.Stats()
	ps := summarize(ip.samples, 0)
	rep.count(ps)
	ip.writes = ps.writes
	p99, _ := ps.writes.tail(0.99)
	rep.set("serve.register_p50_ms", ps.writes.median())
	rep.set("serve.register_p99_ms", p99)
	events, rebuilds := st1.Events-st0.Events, st1.Rebuilds-st0.Rebuilds
	solved, reused := st1.GroupsSolved-st0.GroupsSolved, st1.GroupsReused-st0.GroupsReused
	rep.set("serve.events_per_rebuild", float64(events)/float64(max(rebuilds, 1)))
	rep.set("serve.groups_solved", float64(solved))
	rep.set("serve.groups_reused", float64(reused))
	rep.set("serve.cache_hit_ratio", float64(reused)/float64(max(solved+reused, 1)))

	// The engine must publish what the oracle computes, too.
	shares, _ := eng.Shares()
	pub := make(map[string]float64, len(shares))
	for id, x := range shares {
		pub[string(id)] = x
	}
	orc, err := oracle(wd.topo, rot.live)
	if err != nil {
		return nil, err
	}
	rep.fail(orc.verify(pub)...)

	// GetShare: 1000-call means, so the clock does not dominate.
	ids := make([]flow.ID, len(rot.live))
	for i, f := range rot.live {
		ids[i] = flow.ID(f.ID)
	}
	var per []float64
	for k := 0; k < 100; k++ {
		t0 := time.Now()
		for j := 0; j < 1000; j++ {
			eng.GetShare(ids[j%len(ids)])
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1000)
	}
	rep.set("serve.read_ns", medianOf(per))
	return ip, nil
}

// batch is one committed shard batch: its write ops in commit order.
type batch struct {
	shard int
	ops   []*sample
	fixed bool               // committed during the fixed-rate phase
	times map[string]float64 // replayed span durations, ms
}

// batches groups committed writes by (shard, epoch). An epoch is read
// just after its op's await, so a later commit may already have
// landed; commits within a shard are in op order, so the minimum over
// the shard's later ops bounds each op's epoch from above.
func (ip *inprocPass) batches() []*batch {
	var writes []*sample
	var fixed []bool
	for _, part := range []struct {
		ss    []sample
		fixed bool
	}{{ip.pre, false}, {ip.samples, true}} {
		for i := range part.ss {
			if s := &part.ss[i]; s.op.isWrite() && s.ok() {
				writes = append(writes, s)
				fixed = append(fixed, part.fixed)
			}
		}
	}
	epoch := make([]uint64, len(writes))
	floor := make(map[int]uint64)
	for i := len(writes) - 1; i >= 0; i-- {
		s := writes[i]
		e := s.reply.epoch
		if f, ok := floor[s.reply.shard]; ok && f < e {
			e = f
		}
		floor[s.reply.shard] = e
		epoch[i] = e
	}
	type key struct {
		shard int
		epoch uint64
	}
	byKey := make(map[key]*batch)
	var out []*batch
	for i, s := range writes {
		k := key{s.reply.shard, epoch[i]}
		b := byKey[k]
		if b == nil {
			b = &batch{shard: s.reply.shard, fixed: fixed[i]}
			byKey[k] = b
			out = append(out, b)
		}
		b.ops = append(b.ops, s)
		b.fixed = b.fixed && fixed[i]
	}
	return out
}

// stageNames are the replayed stages that price a batch on the commit
// path, in order; the contention spans run beside them as a breakdown
// of core.instance.
var stageNames = []string{"flow.set", "core.instance", "core.delta", "durable.append"}

// replayed is the outcome of the replay.
type replayed struct {
	batches  []*batch
	cliques  []float64 // per fixed batch
	solved   int       // group LPs solved over fixed batches
	bytes    int64     // WAL bytes appended for fixed batches
	events   int       // events in those appends
	snapshot []float64 // final per-shard snapshots, ms
}

// replay re-prices every committed batch in commit order with one warm
// allocator (and, when durable, one fsync-always WAL) per shard,
// timing each public call as a child span of the batch.
func replay(e *env, w *workload, wd *world, ip *inprocPass, tr *tracer) (*replayed, error) {
	rp := &replayed{batches: ip.batches()}
	type shardState struct {
		flows []*flow.Flow
		alloc *core.Allocator
		log   *durable.ShardLog
		since int
	}
	shards := make([]*shardState, shardCount(wd))
	for i := range shards {
		shards[i] = &shardState{alloc: core.NewAllocatorWorkers(1)}
	}
	if w.Durable {
		store, err := durable.Open(filepath.Join(e.work, "data-replay"),
			durable.Options{Policy: durable.FsyncAlways, SnapshotEvery: daemonSnapshotEvery})
		if err != nil {
			return nil, err
		}
		logs, err := store.Attach(len(shards), wd.topo.AdjacencyFingerprint())
		if err != nil {
			return nil, err
		}
		for i, l := range logs {
			shards[i].log = l
		}
		defer func() {
			for _, sh := range shards {
				sh.log.Close()
			}
			store.Detach()
		}()
	}
	opts := core.CentralizedOptions{Refine: true}
	epochs := make([]uint64, len(shards))
	for bi, b := range rp.batches {
		sh := shards[b.shard]
		start := tr.now()
		parent := tr.add(span{Name: "replay.batch", Pass: "replay", Start: start, Parent: -1, Op: -1, Batch: bi})
		times := make(map[string]float64)
		b.times = times
		var rec durable.BatchRecord
		for _, s := range b.ops {
			ev := durable.Event{ID: flow.ID(s.op.ID)}
			if s.op.Kind == opRegister {
				f, err := flow.New(flow.ID(s.op.ID), s.op.Flow.Weight, s.op.Flow.Path)
				if err != nil {
					return nil, err
				}
				sh.flows = append(sh.flows, f)
				ev.Kind, ev.Weight, ev.Path = durable.EventRegister, f.Weight(), f.Path()
			} else {
				for i, f := range sh.flows {
					if string(f.ID()) == s.op.ID {
						sh.flows = append(sh.flows[:i], sh.flows[i+1:]...)
						break
					}
				}
				ev.Kind = durable.EventRemove
			}
			rec.Events = append(rec.Events, ev)
		}
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		var set *flow.Set
		var err error
		times["flow.set"] = ms(tr.timed("flow.set", "replay", parent, bi, func() { set, err = flow.NewSet(sh.flows...) }))
		if err != nil {
			return nil, err
		}
		if set.Len() > 0 {
			var g *contention.Graph
			var cl []contention.Clique
			var inst *core.Instance
			var d core.Delta
			times["contention.graph"] = ms(tr.timed("contention.graph", "replay", parent, bi, func() { g = contention.NewGraph(wd.topo, set.Subflows()) }))
			times["contention.cliques"] = ms(tr.timed("contention.cliques", "replay", parent, bi, func() { cl = g.MaximalCliques() }))
			times["core.instance"] = ms(tr.timed("core.instance", "replay", parent, bi, func() { inst, err = core.NewInstance(wd.topo, set) }))
			if err != nil {
				return nil, err
			}
			times["core.delta"] = ms(tr.timed("core.delta", "replay", parent, bi, func() { _, d, err = sh.alloc.CentralizedDelta(inst, opts) }))
			if err != nil {
				return nil, err
			}
			if b.fixed {
				rp.cliques = append(rp.cliques, float64(len(cl)))
				rp.solved += d.Solved
			}
		}
		if sh.log != nil {
			epochs[b.shard]++
			rec.Epoch = epochs[b.shard]
			before := sh.log.Size()
			times["durable.append"] = ms(tr.timed("durable.append", "replay", parent, bi, func() { err = sh.log.AppendBatch(&rec) }))
			if err != nil {
				return nil, err
			}
			if b.fixed {
				rp.bytes += sh.log.Size() - before
				rp.events += len(rec.Events)
			}
			sh.since += len(rec.Events)
			if sh.since >= daemonSnapshotEvery {
				if err := snapshotShard(tr, sh.log, epochs[b.shard], sh.flows, parent, bi, nil); err != nil {
					return nil, err
				}
				sh.since = 0
			}
		}
		tr.mu.Lock()
		tr.spans[parent].End = tr.now()
		tr.mu.Unlock()
	}
	// The daemon snapshots every shard when it drains; time that too.
	for i, sh := range shards {
		if sh.log != nil {
			if err := snapshotShard(tr, sh.log, epochs[i], sh.flows, -1, -1, &rp.snapshot); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}

func snapshotShard(tr *tracer, log *durable.ShardLog, epoch uint64, flows []*flow.Flow, parent, bi int, into *[]float64) error {
	snap := durable.Snapshot{Epoch: epoch, Flows: make([]durable.FlowState, len(flows))}
	for i, f := range flows {
		snap.Flows[i] = durable.FlowState{ID: f.ID(), Weight: f.Weight(), Path: f.Path()}
	}
	var err error
	ns := tr.timed("durable.snapshot", "replay", parent, bi, func() { err = log.WriteSnapshot(&snap) })
	if into != nil {
		*into = append(*into, float64(ns)/1e6)
	}
	return err
}

// fixedTimes is one span's replayed time for each fixed-phase batch
// that ran it.
func (rp *replayed) fixedTimes(name string) []float64 {
	var xs []float64
	for _, b := range rp.batches {
		if t, ok := b.times[name]; ok && b.fixed {
			xs = append(xs, t)
		}
	}
	return xs
}

// record sets the replay's per-layer metrics; a stage that never ran
// reports 0.
func (rp *replayed) record(rep *report) {
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return medianOf(xs)
	}
	rep.set("flow.set_ms", med(rp.fixedTimes("flow.set")))
	rep.set("core.instance_ms", med(rp.fixedTimes("core.instance")))
	rep.set("contention.graph_ms", med(rp.fixedTimes("contention.graph")))
	rep.set("contention.cliques_ms", med(rp.fixedTimes("contention.cliques")))
	rep.set("core.delta_ms", med(rp.fixedTimes("core.delta")))
	rep.set("contention.cliques", med(rp.cliques))
	rep.set("core.groups_solved", float64(rp.solved))
	if app := rp.fixedTimes("durable.append"); len(app) > 0 {
		d := newDist(app)
		p99, _ := d.tail(0.99)
		rep.set("durable.append_p50_ms", d.median())
		rep.set("durable.append_p99_ms", p99)
		rep.set("durable.bytes_per_event", float64(rp.bytes)/float64(max(rp.events, 1)))
	}
	rep.set("durable.snapshot_ms", med(rp.snapshot))
}

// stageDist is one stage's time as seen by each fixed-phase write op
// (every op of a batch waits for the whole batch's stage).
type stageDist struct {
	name string
	d    dist
}

func (rp *replayed) perOpStages() []stageDist {
	var out []stageDist
	for _, name := range stageNames {
		var xs []float64
		for _, b := range rp.batches {
			if b.fixed {
				for range b.ops {
					xs = append(xs, b.times[name])
				}
			}
		}
		out = append(out, stageDist{name: name, d: newDist(xs)})
	}
	return out
}

// queued is, per fixed-phase write op, how long it waited in the
// generator for a worker (or for the previous register to its shard).
func (ip *inprocPass) queued() []float64 {
	var out []float64
	for i := range ip.samples {
		if s := &ip.samples[i]; s.op.isWrite() && s.ok() {
			out = append(out, msOf(s.sent-s.op.At))
		}
	}
	return out
}

// waits is, per fixed-phase write op, its in-process span minus its
// batch's stage times: queue wait plus publish.
func (rp *replayed) waits() []float64 {
	var out []float64
	for _, b := range rp.batches {
		if !b.fixed {
			continue
		}
		for _, s := range b.ops {
			span := msOf(s.done - s.sent)
			for _, name := range stageNames {
				span -= b.times[name]
			}
			out = append(out, span)
		}
	}
	return out
}

// contentionAndLP is the p50 per fixed-phase batch of the contention
// spans plus core.delta.
func (rp *replayed) contentionAndLP() float64 {
	var xs []float64
	for _, b := range rp.batches {
		if b.fixed {
			xs = append(xs, b.times["contention.graph"]+b.times["contention.cliques"]+b.times["core.delta"])
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return medianOf(xs)
}

// shardCount is the daemon's shard count: one per radio component.
func shardCount(wd *world) int {
	n := 0
	for _, c := range wd.shardOf {
		n = max(n, c+1)
	}
	return n
}
