package netsim

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
)

// Sharder partitions a topology into interference-disjoint radio
// components and caches the induced sub-topology of each component
// keyed by its fingerprint. Reusing one Sharder across runs — the
// mobility epoch loop — re-shards incrementally: an epoch that moved
// only one component rebuilds that component's sub-topology and serves
// every other shard from the cache. A Sharder is not safe for
// concurrent use; each run sequence owns its own.
type Sharder struct {
	comps  topology.RadioComponentSet
	compOf []int32 // node → component index of the last partition
	// cache holds the sub-topologies of the last sharded run only; next
	// collects the current run's shards and replaces it when the run is
	// built, so the cache never outgrows one partition.
	cache, next map[uint64]*shardEntry
}

// shardEntry is one cached shard: the member list the fingerprint was
// confirmed against, plus the induced sub-topology.
type shardEntry struct {
	members []topology.NodeID
	topo    *topology.Topology
}

// NewSharder returns an empty sharder.
func NewSharder() *Sharder {
	return &Sharder{cache: make(map[uint64]*shardEntry), next: make(map[uint64]*shardEntry)}
}

// subTopo returns the induced sub-topology for a component, from cache
// when the fingerprint and member list both match. The fingerprint
// covers members and their radio adjacency, so a confirmed hit is
// behaviorally interchangeable even when positions drifted without
// changing any range predicate.
func (s *Sharder) subTopo(t *topology.Topology, members []topology.NodeID, fp uint64) (*topology.Topology, error) {
	e, ok := s.cache[fp]
	if !ok || !slices.Equal(e.members, members) {
		sub, err := t.Subset(members)
		if err != nil {
			return nil, err
		}
		e = &shardEntry{members: append([]topology.NodeID(nil), members...), topo: sub}
	}
	s.next[fp] = e
	return e.topo, nil
}

// partition splits the instance's topology into radio components,
// records each node's component, and returns how many components hold
// a flow source.
func (s *Sharder) partition(inst *core.Instance) int {
	inst.Topo.AppendRadioComponents(&s.comps)
	ncomp := s.comps.Len()
	if ncomp < 2 {
		return ncomp
	}
	s.compOf = slices.Grow(s.compOf[:0], inst.Topo.NumNodes())[:inst.Topo.NumNodes()]
	for c := 0; c < ncomp; c++ {
		for _, id := range s.comps.Component(c) {
			s.compOf[id] = int32(c)
		}
	}
	carrying := make([]bool, ncomp)
	n := 0
	for _, f := range inst.Flows.Flows() {
		if c := s.compOf[f.Source()]; !carrying[c] {
			carrying[c] = true
			n++
		}
	}
	return n
}

// shardProblem is one component's fully prepared sub-run: the induced
// instance plus a config carrying the sliced shares and the
// local→global node and flow index maps.
type shardProblem struct {
	comp    int
	members []topology.NodeID
	inst    *core.Instance
	cfg     Config
}

// planShards returns the sharder holding the run's radio components
// and the number of shards when the run shards, and nil when it takes
// the single engine. A run shards exactly when at least two radio
// components of its topology carry flows and it has no tracer, fault
// plan or watchdog: a tracer would interleave events from concurrent
// engines, and a fault or watchdog run re-solves and checks invariants
// over the whole network, so its counters would change if each
// component ran its own coordinator. Components without flows send
// nothing, so they never count: a run whose flows share one component
// has nothing to split.
func planShards(inst *core.Instance, cfg Config) (*Sharder, int) {
	if cfg.Tracer != nil || cfg.Fault != nil || cfg.Watchdog || inst.Topo == nil || inst.Flows.Len() < 2 {
		return nil, 1
	}
	sh := cfg.Sharder
	if sh == nil {
		sh = NewSharder()
	}
	n := sh.partition(inst)
	if n < 2 {
		return nil, 1
	}
	return sh, n
}

// runSharded partitions the run by radio component, solves the first
// phase once over the whole instance, runs one single-engine sub-run
// per component on a GOMAXPROCS worker pool, and merges.
//
// Byte-identity with the single-engine run rests on three invariants:
// interference-closed components never exchange MAC events; every
// random draw comes from a per-node stream seeded by the node's global
// ID (so draw sequences depend only on intra-component event order);
// and CBR stagger offsets are keyed to global flow indices. Merge
// order is component order, so the worker count never changes the
// result.
func runSharded(a *core.Allocator, inst *core.Instance, cfg Config, sh *Sharder) (*Result, error) {
	// Hoist the first-phase solve: one whole-instance allocation,
	// sliced into each shard. Group LPs never span radio components
	// (contention needs interference proximity), so the slice equals
	// what a per-shard solve would produce — but solving once keeps the
	// allocator's delta/cache behavior identical to the single path.
	shares := cfg.Shares
	if shares == nil && cfg.Protocol != Protocol80211 {
		var err error
		if shares, _, _, err = solveShares(a, inst, cfg.Protocol, false); err != nil {
			return nil, err
		}
	}
	probs, err := buildShardProblems(sh, inst, cfg, shares)
	if err != nil {
		return nil, err
	}
	results, err := runShardProblems(probs)
	if err != nil {
		return nil, err
	}
	return mergeShardResults(cfg, shares, probs, results), nil
}

// buildShardProblems prepares one sub-run per component that carries
// at least one flow. Flowless components are skipped: without sources
// they send nothing, so they add no stats and no airtime, exactly as on
// the single-engine path.
func buildShardProblems(sh *Sharder, inst *core.Instance, cfg Config, shares core.SubflowAllocation) ([]*shardProblem, error) {
	ncomp := sh.comps.Len()
	compOf := sh.compOf
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

	localOf := make([]int32, len(compOf)) // global → local, valid for the component in flight
	var probs []*shardProblem
	clear(sh.next)
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
		scfg := cfg
		scfg.Sharder = nil
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
		probs = append(probs, &shardProblem{comp: c, members: members, inst: &core.Instance{Topo: subTopo, Flows: subSet}, cfg: scfg})
	}
	sh.cache, sh.next = sh.next, sh.cache
	clear(sh.next)
	return probs, nil
}

// runShardProblems executes the sub-runs across a GOMAXPROCS worker
// pool. Each worker owns one engine recycled via Reset between shards;
// results are index-addressed so the outcome is independent of
// scheduling. On failure the lowest-indexed shard's error is returned.
func runShardProblems(probs []*shardProblem) ([]*Result, error) {
	workers := min(runtime.GOMAXPROCS(0), len(probs))
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
// schedule, and airtime sums with per-node totals remapped to global
// IDs.
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
	}
	return out
}
