package netsim

import (
	"fmt"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/routing"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
	"e2efair/internal/traffic"
)

// shareSetter is the scheduler surface reallocation drives: both the
// tag scheduler and DFS implement it.
type shareSetter interface {
	AddSubflow(id flow.SubflowID, share float64) error
	SetShare(id flow.SubflowID, share float64) error
}

// runner is the simulator's one datapath. It owns the stack, one CBR
// source per flow and the flows' current routes; it accounts every
// packet's fate, switches sources on churn events and re-solves the
// shares whenever the active flows or their routes change. A resilient
// run (a fault plan or the watchdog) also repairs routes around dead
// links, salvages stranded packets, degrades failed solves to basic
// shares and checks invariants; a fault-free run has no injector and
// no watchdog, and keeps the exact fault-free datapath.
type runner struct {
	cfg       Config
	inst      *core.Instance
	alloc     *core.Allocator // nil until the first solve
	stack     *Stack
	inj       *fault.Injector
	resilient bool
	col       *stats.Collector
	lat       *stats.LatencyTracker
	rep       ResilienceReport
	res       *DynamicResult
	// err is the first failed reallocation of a strict run; it stops
	// the engine and is returned from simulate.
	err error

	flows []flowRun       // in instance order
	byID  map[flow.ID]int // built on first use by flow
	// instCache keys re-solve instances by active flow set, so a
	// recurring set skips the contention graph and clique enumeration.
	// A reroute clears it.
	instCache map[string]*core.Instance

	organic  map[uint64]bool // MAC-declared dead links
	bfs      routing.BFSTree
	keepFn   func(u, v topology.NodeID) bool
	repairFn func()
}

// flowRun is one flow's state in a run.
type flowRun struct {
	f *flow.Flow
	// src is the flow's source; its Path is the flow's current route.
	src    *traffic.CBR
	share  float64 // hop-0 share; detours register at it
	active bool
	// A repair is due at repairAt for a break detected at brokenAt; an
	// unreachable flow found no route and waits for a recovery.
	repairing, unreachable bool
	repairAt, brokenAt     sim.Time
}

// simulate runs one simulation; every entry point goes through it.
// Without churn every flow's source starts at its stagger offset; with
// churn no source runs until an event starts it, and each event
// re-solves the shares over the active flows. The returned runner holds
// the assembled result in res.
func simulate(a *core.Allocator, inst *core.Instance, cfg Config, events []FlowEvent, churn bool) (*runner, error) {
	if inst.Topo == nil {
		return nil, ErrNeedTopology
	}
	for _, ev := range events {
		for _, ids := range [][]flow.ID{ev.Start, ev.Stop} {
			for _, id := range ids {
				if _, err := inst.Flows.Get(id); err != nil {
					return nil, fmt.Errorf("netsim: dynamic event: %w", err)
				}
			}
		}
	}
	r := &runner{
		cfg:       cfg,
		inst:      inst,
		alloc:     a,
		resilient: cfg.Fault != nil || cfg.Watchdog,
		col:       stats.NewCollector(),
		lat:       stats.NewLatencyTracker(),
		flows:     make([]flowRun, inst.Flows.Len()),
	}
	if cfg.Fault != nil {
		inj, err := cfg.Fault.Compile(inst.Topo.NumNodes())
		if err != nil {
			return nil, err
		}
		// Shard runs re-seed the per-transmitter loss streams with the
		// nodes' global identities so the draws replay the
		// whole-network run.
		if cfg.nodeIDs != nil {
			if err := inj.SetNodeIDs(cfg.nodeIDs); err != nil {
				return nil, err
			}
		}
		r.inj = inj
		r.organic = make(map[uint64]bool)
		r.keepFn = r.linkAlive
		r.repairFn = r.repair
	}
	if cfg.Shares == nil && cfg.Protocol != Protocol80211 {
		shares, degraded, err := r.solve(inst)
		if err != nil {
			return nil, err
		}
		if degraded {
			r.rep.DegradedAllocs++
		}
		r.cfg.Shares = shares
	}
	hooks := mac.Hooks{
		OnDelivered: r.onDelivered,
		OnRetryDrop: r.onRetryDrop,
		OnCollision: r.onCollision,
	}
	if r.inj != nil {
		hooks.OnCorrupt = r.onCorrupt
		hooks.OnLinkDead = r.onLinkDead
	}
	stack, err := NewStack(inst, r.cfg, hooks)
	if err != nil {
		return nil, err
	}
	r.stack = stack
	eng := stack.Engine
	if r.inj != nil {
		stack.Medium.SetLinkState(r.inj)
		stack.Medium.Channel().SetLossModel(r.inj)
		if err := r.inj.Arm(eng, r.onFaultChange); err != nil {
			return nil, err
		}
	}
	r.res = &DynamicResult{FinalShares: stack.Shares}

	onEmit := r.onEmit
	for i, f := range inst.Flows.Flows() {
		fl := &r.flows[i]
		fl.f, fl.active = f, !churn
		fl.share = stack.Shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]
		src := traffic.CBRConfig{
			Flow:         f,
			PacketsPerS:  cfg.PacketsPerS,
			PayloadBytes: cfg.PayloadBytes,
			Offset:       cbrOffset(cfg, i),
			Until:        cfg.Duration,
			OnEmit:       onEmit,
		}
		if churn {
			fl.src, err = traffic.NewCBR(eng, stack.Medium, src)
		} else {
			fl.src, err = traffic.StartCBR(eng, stack.Medium, src)
		}
		if err != nil {
			return nil, err
		}
	}
	for _, ev := range events {
		if err := eng.Schedule(ev.At, 1, func() { r.churn(ev) }); err != nil {
			return nil, err
		}
	}

	var series *stats.Series
	if cfg.SampleEvery > 0 {
		series = stats.NewSeries(cfg.SampleEvery)
		var sample func()
		sample = func() {
			series.Sample(eng.Now(), r.col)
			if eng.Now() < cfg.Duration {
				_ = eng.After(cfg.SampleEvery, 0, sample)
			}
		}
		_ = eng.After(cfg.SampleEvery, 0, sample)
	}
	if cfg.Watchdog {
		r.checkShareFloor(inst, stack.Shares)
		var tick func()
		tick = func() {
			r.checkInvariants()
			if eng.Now() < cfg.Duration {
				_ = eng.After(watchdogEvery, 0, tick)
			}
		}
		_ = eng.After(watchdogEvery, 0, tick)
	}

	eng.Run(cfg.Duration)
	if r.err != nil {
		return nil, r.err
	}

	res := r.res
	res.Result = Result{
		Protocol: cfg.Protocol,
		Duration: cfg.Duration,
		Stats:    r.col,
		Shares:   stack.Shares,
		Airtime:  stack.Medium.Airtime(),
		Series:   series,
		Latency:  r.lat,
	}
	res.Reallocations = int(r.rep.Reallocations)
	res.GroupSolves = int(r.rep.GroupSolves)
	res.GroupReuses = int(r.rep.GroupReuses)
	if r.resilient {
		if cfg.Watchdog {
			r.checkInvariants()
		}
		if r.inj != nil {
			r.rep.InjectedLosses = r.inj.Corruptions()
		}
		r.rep.FinalRoutes = make(map[flow.ID][]topology.NodeID, len(r.flows))
		for _, fl := range r.flows {
			r.rep.FinalRoutes[fl.f.ID()] = fl.src.Path()
		}
		rep := r.rep
		res.Resilience = &rep
	}
	return r, nil
}

// cbrOffset staggers CBR source starts by the flow's *global* index:
// 137 µs per flow, 137 coprime to the 5000 µs default emission
// interval, so sources never synchronize. Shard runs carry the global
// index in cfg.flowIdx so their emission times match the single-engine
// run exactly.
func cbrOffset(cfg Config, i int) sim.Time {
	if cfg.flowIdx != nil {
		i = cfg.flowIdx[i]
	}
	return sim.Time(i) * 137 * sim.Microsecond
}

func (r *runner) onEmit(accepted bool) {
	r.rep.Emitted++
	if accepted {
		r.rep.Injected++
		return
	}
	r.col.QueueDrop(false)
	r.rep.SourceDrops++
}

func (r *runner) onDelivered(p *mac.Packet, now sim.Time) {
	r.col.HopDelivered(p.SubflowID(), p.LastHop())
	if p.LastHop() {
		r.lat.Record(p.Flow, now-p.Born)
		r.rep.Delivered++
		r.stack.Medium.FreePacket(p)
		return
	}
	p.Hop++
	ok, injErr := r.stack.Medium.Inject(p)
	if injErr == nil && !ok {
		r.col.QueueDrop(true)
		r.col.DropAt(p.SubflowID())
		r.rep.QueueDrops++
		r.stack.Medium.FreePacket(p)
	}
}

// onRetryDrop salvages the abandoned packet onto a detour when one
// exists; otherwise the drop is attributed (retry vs no-route) and the
// packet freed.
func (r *runner) onRetryDrop(p *mac.Packet, now sim.Time) {
	if r.inj != nil && r.salvage(p, now) {
		r.rep.Salvaged++
		return
	}
	inFlight := p.Hop >= 1
	r.col.RetryDrop(inFlight)
	if inFlight {
		r.col.DropAt(p.SubflowID())
	}
	r.rep.RetryDrops++
	r.stack.Medium.FreePacket(p)
}

func (r *runner) onCollision(_ topology.NodeID, _ sim.Time) { r.col.Collision() }

// churn applies one flow event: stops, then starts, then a re-solve
// over the flows now active.
func (r *runner) churn(ev FlowEvent) {
	for _, id := range ev.Stop {
		fl := r.flow(id)
		fl.active = false
		fl.src.Stop()
	}
	for _, id := range ev.Start {
		fl := r.flow(id)
		fl.active = true
		fl.src.Start()
	}
	r.reallocate(ev.At)
}

// flow returns the state of a flow of the run's instance.
func (r *runner) flow(id flow.ID) *flowRun {
	if r.byID == nil {
		r.byID = make(map[flow.ID]int, len(r.flows))
		for i, fl := range r.flows {
			r.byID[fl.f.ID()] = i
		}
	}
	return &r.flows[r.byID[id]]
}

// solve computes the protocol's per-subflow allocation on the run's
// allocator — strictly, or with graceful LP degradation in a resilient
// run — accumulating the allocator's churn delta into the report.
func (r *runner) solve(sub *core.Instance) (core.SubflowAllocation, bool, error) {
	if r.alloc == nil {
		r.alloc = core.NewAllocatorWorkers(1)
	}
	shares, delta, degraded, err := solveShares(r.alloc, sub, r.cfg.Protocol, r.resilient)
	if err != nil {
		return nil, false, err
	}
	r.rep.GroupSolves += int64(delta.Solved)
	r.rep.GroupReuses += int64(delta.Reused)
	return shares, degraded, nil
}

// reallocate re-solves shares over the active flows' current routes and
// installs them into the running schedulers. A strict run stops on
// failure and returns the error; a resilient run records it and keeps
// the previous shares in force.
func (r *runner) reallocate(now sim.Time) {
	if r.cfg.Protocol == Protocol80211 {
		return
	}
	sub, err := r.activeInstance()
	if sub == nil && err == nil {
		return
	}
	var shares core.SubflowAllocation
	degraded := false
	if err == nil {
		shares, degraded, err = r.solve(sub)
	}
	if err != nil {
		if r.resilient {
			r.violation(now, fmt.Sprintf("reallocate: %v", err))
			return
		}
		r.err = fmt.Errorf("netsim: reallocate at t=%.6f: %w", now.Seconds(), err)
		r.stack.Engine.Stop()
		return
	}
	r.rep.Reallocations++
	if degraded {
		r.rep.DegradedAllocs++
		r.trace(mac.TraceEvent{Kind: mac.TraceDegraded, At: now, Node: -1, Peer: -1})
	}
	for _, f := range sub.Flows.Flows() {
		for _, s := range f.Subflows() {
			share := shares[s.ID]
			ss, ok := r.stack.Medium.SchedulerAt(s.Src).(shareSetter)
			if !ok {
				continue
			}
			if err := ss.SetShare(s.ID, share); err != nil {
				_ = ss.AddSubflow(s.ID, share)
			}
		}
		r.flow(f.ID()).share = shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]
	}
	r.res.FinalShares = shares
	if r.cfg.Watchdog {
		r.checkShareFloorInstance(sub, shares)
	}
}

// activeInstance returns the instance of the active flows over their
// current routes, or nil when no flow is active. Lenient: detours may
// pass within range of other route nodes, which the strict
// no-shortcut validation would reject.
func (r *runner) activeInstance() (*core.Instance, error) {
	var key []byte
	for _, fl := range r.flows {
		if fl.active {
			key = append(append(key, fl.f.ID()...), 0)
		}
	}
	if key == nil {
		return nil, nil
	}
	if sub, ok := r.instCache[string(key)]; ok {
		return sub, nil
	}
	var fls []*flow.Flow
	for _, fl := range r.flows {
		if !fl.active {
			continue
		}
		nf, err := flow.New(fl.f.ID(), fl.f.Weight(), fl.src.Path())
		if err != nil {
			return nil, err
		}
		fls = append(fls, nf)
	}
	set, err := flow.NewSet(fls...)
	if err != nil {
		return nil, err
	}
	sub, err := core.NewInstanceLenient(r.inst.Topo, set)
	if err != nil {
		return nil, err
	}
	if r.instCache == nil {
		r.instCache = make(map[string]*core.Instance)
	}
	r.instCache[string(key)] = sub
	return sub, nil
}

// trace forwards a run event through the configured tracer.
func (r *runner) trace(ev mac.TraceEvent) {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Trace(ev)
	}
}
