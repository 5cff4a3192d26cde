package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
)

// shardMinComponents is the cutoff below which sharding is pure
// overhead: with one component there is nothing to parallelize, and
// the single-engine path is kept exactly as-is.
const shardMinComponents = 2

// Sharder partitions a topology into interference-disjoint radio
// components and caches the induced sub-topology of each component
// keyed by its fingerprint. Reusing one Sharder across runs — the
// mobility epoch loop — re-shards incrementally: an epoch that moved
// only one component rebuilds that component's sub-topology and serves
// every other shard from the cache. A Sharder is not safe for
// concurrent use; each run sequence owns its own.
type Sharder struct {
	comps topology.RadioComponentSet
	cache map[uint64]*shardEntry
}

// shardEntry is one cached shard: the member list the fingerprint was
// confirmed against, plus the induced sub-topology.
type shardEntry struct {
	members []topology.NodeID
	topo    *topology.Topology
}

// NewSharder returns an empty sharder.
func NewSharder() *Sharder {
	return &Sharder{cache: make(map[uint64]*shardEntry)}
}

// subTopo returns the induced sub-topology for a component, from cache
// when the fingerprint and member list both match. The fingerprint
// covers members and their radio adjacency, so a confirmed hit is
// behaviorally interchangeable even when positions drifted without
// changing any range predicate.
func (s *Sharder) subTopo(t *topology.Topology, members []topology.NodeID, fp uint64) (*topology.Topology, error) {
	if e, ok := s.cache[fp]; ok && slices.Equal(e.members, members) {
		return e.topo, nil
	}
	sub, err := t.Subset(members)
	if err != nil {
		return nil, err
	}
	s.cache[fp] = &shardEntry{
		members: append([]topology.NodeID(nil), members...),
		topo:    sub,
	}
	return sub, nil
}

// shardProblem is one component's fully prepared sub-run: the induced
// instance plus a config carrying the sliced shares, the filtered
// fault plan, and the local→global node and flow index maps.
type shardProblem struct {
	comp    int
	members []topology.NodeID
	inst    *core.Instance
	cfg     Config
}

// runSharded dispatches a Config.ShardSim run: partition, solve the
// first phase once over the whole instance, run one single-engine
// sub-run per radio component on a worker pool, and merge. The bool
// reports whether sharding applied; false means the caller should take
// the single-engine path (sharding disabled, a tracer attached, or too
// few components).
//
// Byte-identity with the single-engine run rests on three invariants:
// interference-closed components never exchange MAC events; every
// random draw comes from a per-node stream seeded by the node's global
// ID (so draw sequences depend only on intra-component event order);
// and CBR stagger offsets are keyed to global flow indices. Merge
// order is component order, so the worker count never changes the
// result.
func runSharded(a *core.Allocator, inst *core.Instance, cfg Config) (*Result, bool, error) {
	if !cfg.ShardSim || cfg.Tracer != nil || inst.Topo == nil {
		return nil, false, nil
	}
	sh := cfg.Sharder
	if sh == nil {
		sh = NewSharder()
	}
	inst.Topo.AppendRadioComponents(&sh.comps)
	if sh.comps.Len() < shardMinComponents {
		return nil, false, nil
	}
	resilient := cfg.Fault != nil || cfg.Watchdog
	if cfg.Fault != nil {
		// Validate the whole plan up front so an invalid plan fails
		// exactly as it would on the single-engine path, before any
		// per-shard filtering could mask the offending entry.
		if _, err := cfg.Fault.Compile(inst.Topo.NumNodes()); err != nil {
			return nil, true, err
		}
	}

	// Hoist the first-phase solve: one whole-instance allocation,
	// sliced into each shard. Group LPs never span radio components
	// (contention needs interference proximity), so the slice equals
	// what a per-shard solve would produce — but solving once keeps the
	// allocator's delta/cache behavior identical to the single path.
	shares := cfg.Shares
	var initDelta core.Delta
	initDegraded := false
	if shares == nil && cfg.Protocol != Protocol80211 {
		var err error
		shares, initDelta, initDegraded, err = solveShares(a, inst, cfg.Protocol, resilient)
		if err != nil {
			return nil, true, err
		}
	}

	probs, err := buildShardProblems(sh, inst, cfg, shares, resilient)
	if err != nil {
		return nil, true, err
	}
	results, err := runShardProblems(probs, cfg.ShardWorkers)
	if err != nil {
		return nil, true, err
	}
	res := mergeShardResults(cfg, shares, probs, results)
	if res.Resilience != nil {
		res.Resilience.GroupSolves += int64(initDelta.Solved)
		res.Resilience.GroupReuses += int64(initDelta.Reused)
		if initDegraded {
			res.Resilience.DegradedAllocs++
		}
	}
	return res, true, nil
}

// buildShardProblems prepares one sub-run per component that carries
// at least one flow. Flowless components are skipped: without sources
// they produce no packets, no stats, and no observable fault effects,
// exactly as on the single-engine path.
func buildShardProblems(sh *Sharder, inst *core.Instance, cfg Config, shares core.SubflowAllocation, resilient bool) ([]*shardProblem, error) {
	n := inst.Topo.NumNodes()
	ncomp := sh.comps.Len()
	compOf := make([]int32, n)
	for c := 0; c < ncomp; c++ {
		for _, id := range sh.comps.Component(c) {
			compOf[id] = int32(c)
		}
	}
	// Flows grouped by the component of their source; paths are closed
	// within a component (every hop is a tx-range link, and tx range ≤
	// interference range), so the source's component owns the flow.
	flowsOf := make([][]*flow.Flow, ncomp)
	gidxOf := make([][]int, ncomp)
	for i, f := range inst.Flows.Flows() {
		c := compOf[f.Source()]
		flowsOf[c] = append(flowsOf[c], f)
		gidxOf[c] = append(gidxOf[c], i)
	}

	localOf := make([]int32, n) // global → local, valid for the component in flight
	var probs []*shardProblem
	for c := 0; c < ncomp; c++ {
		if len(flowsOf[c]) == 0 {
			continue
		}
		members := sh.comps.Component(c)
		subTopo, err := sh.subTopo(inst.Topo, members, sh.comps.Fingerprint(c))
		if err != nil {
			return nil, err
		}
		nodeIDs := make([]int32, len(members))
		for li, g := range members {
			localOf[g] = int32(li)
			nodeIDs[li] = int32(g)
		}
		remapped := make([]*flow.Flow, len(flowsOf[c]))
		for fi, f := range flowsOf[c] {
			path := f.Path()
			local := make([]topology.NodeID, len(path))
			for j, node := range path {
				if int(compOf[node]) != c {
					return nil, fmt.Errorf("netsim: flow %s leaves radio component %d at node %s", f.ID(), c, inst.Topo.Name(node))
				}
				local[j] = topology.NodeID(localOf[node])
			}
			nf, err := flow.New(f.ID(), f.Weight(), local)
			if err != nil {
				return nil, err
			}
			remapped[fi] = nf
		}
		subSet, err := flow.NewSet(remapped...)
		if err != nil {
			return nil, err
		}
		var subInst *core.Instance
		if resilient {
			// The resilient path consults the contention graph (share
			// floors, lenient re-instances); build it per shard.
			subInst, err = core.NewInstanceLenient(subTopo, subSet)
			if err != nil {
				return nil, err
			}
		} else {
			subInst = &core.Instance{Topo: subTopo, Flows: subSet}
		}

		scfg := cfg
		scfg.ShardSim = false
		scfg.Sharder = nil
		scfg.ShardWorkers = 0
		scfg.eng = nil
		scfg.nodeIDs = nodeIDs
		scfg.flowIdx = gidxOf[c]
		if shares != nil {
			sub := make(core.SubflowAllocation)
			for _, f := range flowsOf[c] {
				for _, s := range f.Subflows() {
					sub[s.ID] = shares[s.ID]
				}
			}
			scfg.Shares = sub
		}
		if cfg.Fault != nil {
			scfg.Fault = shardFaultPlan(cfg.Fault, compOf, localOf, c)
		}
		probs = append(probs, &shardProblem{comp: c, members: members, inst: subInst, cfg: scfg})
	}
	return probs, nil
}

// shardFaultPlan restricts a validated fault plan to one component,
// remapping node IDs to shard-local indices. Directives whose nodes
// fall outside the component are dropped: a link between components is
// out of interference range, so neither its loss rate nor its up/down
// state can ever be consulted there.
func shardFaultPlan(p *fault.Plan, compOf, localOf []int32, c int) *fault.Plan {
	sp := &fault.Plan{Seed: p.Seed, DefaultLoss: p.DefaultLoss}
	for _, l := range p.LinkLoss {
		if int(compOf[l.A]) == c && int(compOf[l.B]) == c {
			sp.LinkLoss = append(sp.LinkLoss, fault.LinkLoss{
				A: topology.NodeID(localOf[l.A]), B: topology.NodeID(localOf[l.B]), Rate: l.Rate,
			})
		}
	}
	for _, f := range p.NodeFaults {
		if int(compOf[f.Node]) == c {
			sp.NodeFaults = append(sp.NodeFaults, fault.NodeFault{
				Node: topology.NodeID(localOf[f.Node]), Down: f.Down, Up: f.Up,
			})
		}
	}
	for _, f := range p.LinkFaults {
		if int(compOf[f.A]) == c && int(compOf[f.B]) == c {
			sp.LinkFaults = append(sp.LinkFaults, fault.LinkFault{
				A: topology.NodeID(localOf[f.A]), B: topology.NodeID(localOf[f.B]), Down: f.Down, Up: f.Up,
			})
		}
	}
	return sp
}

// runShardProblems executes the sub-runs across a worker pool. Each
// worker owns one engine recycled via Reset between shards; results
// are index-addressed so the outcome is independent of scheduling. On
// failure the lowest-indexed shard's error is returned.
func runShardProblems(probs []*shardProblem, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(probs) {
		workers = len(probs)
	}
	results := make([]*Result, len(probs))
	errs := make([]error, len(probs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewEngine()
			for i := range idx {
				scfg := probs[i].cfg
				scfg.eng = eng
				var r *runner
				if r, errs[i] = simulate(nil, probs[i].inst, scfg, nil, false); r != nil {
					results[i] = &r.res.Result
				}
			}
		}()
	}
	for i := range probs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("netsim: shard %d (component %d): %w", i, probs[i].comp, err)
		}
	}
	return results, nil
}

// mergeShardResults folds the per-component results into one, in
// component order: collectors and latency trackers union (flow sets
// are disjoint), series merge window-wise on the shared sampling
// schedule, airtime sums with per-node totals remapped to global IDs,
// and resilience counters sum with final routes remapped.
func mergeShardResults(cfg Config, shares core.SubflowAllocation, probs []*shardProblem, results []*Result) *Result {
	out := &Result{
		Protocol: cfg.Protocol,
		Duration: cfg.Duration,
		Stats:    stats.NewCollector(),
		Shares:   shares,
		Latency:  stats.NewLatencyTracker(),
		Airtime: &mac.AirtimeReport{
			Duration:  cfg.Duration,
			PerNodeTx: make(map[topology.NodeID]sim.Time),
		},
	}
	var rep *ResilienceReport
	if cfg.Fault != nil || cfg.Watchdog {
		rep = &ResilienceReport{FinalRoutes: make(map[flow.ID][]topology.NodeID)}
		out.Resilience = rep
	}
	for i, r := range results {
		members := probs[i].members
		out.Stats.Merge(r.Stats)
		out.Latency.Merge(r.Latency)
		if r.Airtime != nil {
			out.Airtime.TxTime += r.Airtime.TxTime
			out.Airtime.CollisionTime += r.Airtime.CollisionTime
			out.Airtime.Exchanges += r.Airtime.Exchanges
			out.Airtime.Collisions += r.Airtime.Collisions
			for local, t := range r.Airtime.PerNodeTx {
				out.Airtime.PerNodeTx[members[local]] = t
			}
		}
		if r.Series != nil {
			if out.Series == nil {
				out.Series = r.Series
			} else {
				// Sub-runs share duration and period, so schedules
				// match by construction; a mismatch would be a bug.
				_ = out.Series.Merge(r.Series)
			}
		}
		if rep != nil && r.Resilience != nil {
			mergeResilience(rep, r.Resilience, members)
		}
	}
	return out
}

// mergeResilience folds one shard's report into the merged report,
// remapping final routes to global node IDs. Violations concatenate in
// shard order up to the usual cap. Reallocations, WatchdogChecks and
// the group-delta counters sum across shards, so they can legitimately
// exceed the single-engine counts (each shard reallocates and checks
// independently); every packet- and repair-accounting counter matches
// the single-engine run exactly.
func mergeResilience(dst, src *ResilienceReport, members []topology.NodeID) {
	dst.Emitted += src.Emitted
	dst.Injected += src.Injected
	dst.Delivered += src.Delivered
	dst.SourceDrops += src.SourceDrops
	dst.QueueDrops += src.QueueDrops
	dst.RetryDrops += src.RetryDrops
	dst.NoRouteDrops += src.NoRouteDrops
	dst.CorruptFrames += src.CorruptFrames
	dst.InjectedLosses += src.InjectedLosses
	dst.LinkDeadSignals += src.LinkDeadSignals
	dst.RouteErrors += src.RouteErrors
	dst.Reroutes += src.Reroutes
	dst.Salvaged += src.Salvaged
	dst.Reallocations += src.Reallocations
	dst.DegradedAllocs += src.DegradedAllocs
	dst.GroupSolves += src.GroupSolves
	dst.GroupReuses += src.GroupReuses
	dst.RepairTime += src.RepairTime
	dst.WatchdogChecks += src.WatchdogChecks
	for _, v := range src.Violations {
		if len(dst.Violations) >= maxViolations {
			break
		}
		dst.Violations = append(dst.Violations, v)
	}
	for fid, route := range src.FinalRoutes {
		global := make([]topology.NodeID, len(route))
		for j, n := range route {
			global[j] = members[n]
		}
		dst.FinalRoutes[fid] = global
	}
}
