package netsim_test

// Sharded/single equivalence suite: Run shards a multi-component
// topology by itself, and must reproduce the single-engine oracle
// (RunSingleEngine) byte for byte — every subflow count, drop,
// collision, latency sample, series window, and airtime total —
// regardless of worker count or shard assignment. The tests here pin
// that across the protocol stacks, a 200-seed property sweep, the
// mobility epoch loops, and a node-ID permutation that checks the
// per-node RNG scheme directly, and pin which runs shard at all.

import (
	"fmt"
	"runtime"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/topology"
)

// renderDeep flattens every observable of a run — per-subflow and
// end-to-end counts, drops, collisions, airtime totals and per-node
// occupancy, per-flow latency distributions, and throughput series —
// into one canonical string for wholesale comparison.
func renderDeep(s *scenario.Scenario, r *netsim.Result) string {
	out := renderRun(s, r)
	if a := r.Airtime; a != nil {
		out += fmt.Sprintf("\nair: tx=%d coll=%d exch=%d collN=%d per-node={", a.TxTime, a.CollisionTime, a.Exchanges, a.Collisions)
		for i := 0; i < s.Topo.NumNodes(); i++ {
			if t, ok := a.PerNodeTx[topology.NodeID(i)]; ok {
				out += fmt.Sprintf("%s:%d ", s.Topo.Name(topology.NodeID(i)), t)
			}
		}
		out += "}"
	}
	if l := r.Latency; l != nil {
		out += "\nlatency:"
		for _, f := range s.Flows.Flows() {
			id := f.ID()
			p50, _ := l.Quantile(id, 0.5)
			p99, _ := l.Quantile(id, 0.99)
			mean, _ := l.Mean(id)
			out += fmt.Sprintf(" %s:{n=%d mean=%d p50=%d p99=%d}", id, l.Count(id), mean, p50, p99)
		}
	}
	if sr := r.Series; sr != nil {
		out += fmt.Sprintf("\nseries: times=%v", sr.Times())
		for _, f := range s.Flows.Flows() {
			out += fmt.Sprintf(" %s:%v", f.ID(), sr.Windows(f.ID()))
		}
	}
	return out
}

// tiled builds a c-copy tiling of Figure 6 — c disjoint radio
// components with nine flows each.
func tiledFig6(t testing.TB, c int) *scenario.Scenario {
	t.Helper()
	base, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Tiled(base, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func tiledFig1(t testing.TB, c int) *scenario.Scenario {
	t.Helper()
	base, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Tiled(base, c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// withProcs runs f with GOMAXPROCS set to n, which sizes the shard
// worker pool.
func withProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestShardedEquivalenceTiled runs a three-component tiling of
// Figure 6 under every protocol stack and demands the default run
// equal the single-engine oracle on every observable, with one and
// with eight shard workers.
func TestShardedEquivalenceTiled(t *testing.T) {
	s := tiledFig6(t, 3)
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := netsim.Config{
				Protocol:    p,
				Duration:    3 * sim.Second,
				Seed:        3,
				SampleEvery: sim.Second,
			}
			single, err := netsim.RunSingleEngine(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := renderDeep(s, single)
			for _, procs := range []int{1, 8} {
				var sharded *netsim.Result
				withProcs(procs, func() { sharded, err = netsim.Run(s.Inst, cfg) })
				if err != nil {
					t.Fatal(err)
				}
				if got := renderDeep(s, sharded); got != want {
					t.Errorf("GOMAXPROCS=%d: sharded run diverged:\n got: %s\nwant: %s", procs, got, want)
				}
			}
		})
	}
}

// TestShardedEquivalenceSeeds is the 200-seed property sweep: across
// seeds (cycling through all five protocol stacks) the default run of
// a two-component scenario and the single-engine oracle must agree
// exactly.
func TestShardedEquivalenceSeeds(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	s := tiledFig1(t, 2)
	for seed := 0; seed < seeds; seed++ {
		p := allProtocols[seed%len(allProtocols)]
		cfg := netsim.Config{Protocol: p, Duration: 2 * sim.Second, Seed: int64(seed)}
		single, err := netsim.RunSingleEngine(s.Inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := netsim.Run(s.Inst, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderDeep(s, sharded), renderDeep(s, single); got != want {
			t.Fatalf("seed %d (%s): sharded diverged:\n got: %s\nwant: %s", seed, p, got, want)
		}
	}
}

// TestShardedManyWorkersRace drives an eight-component tiling through
// an 8-way worker pool repeatedly. Run under -race this validates that
// concurrent shard engines share no mutable state; without -race it
// still pins equivalence at high worker counts.
func TestShardedManyWorkersRace(t *testing.T) {
	s := tiledFig6(t, 8)
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: 11}
	single, err := netsim.RunSingleEngine(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderDeep(s, single)
	cfg.Sharder = netsim.NewSharder() // exercise the cached sub-topology path too
	withProcs(8, func() {
		for round := 0; round < 3; round++ {
			r, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderDeep(s, r); got != want {
				t.Fatalf("round %d: sharded diverged", round)
			}
		}
	})
}

// TestNodeIDPermutation pins the per-node RNG scheme itself: in a
// topology made of two geometrically identical, radio-disjoint chains,
// relabeling which chain carries which node IDs while keeping each
// flow attached to its node IDs must reproduce identical per-flow
// outcomes — the node's stream follows its global ID, and the flow's
// CBR offset follows its index, so the spatial swap is unobservable.
// Under the old engine-order shared RNG this fails: the interleaving
// of the two chains' events would shift every draw.
func TestNodeIDPermutation(t *testing.T) {
	build := func(swapped bool) (*scenario.Scenario, error) {
		// Chain X at the origin, chain Y far away; swapped=true places
		// the ID block 0-2 on Y's site and 3-5 on X's site.
		x0, y0 := 0.0, 5000.0
		if swapped {
			x0, y0 = 5000.0, 0.0
		}
		b := topology.NewBuilder(topology.DefaultRange, 0)
		b.Add("x0", x0, 0)
		b.Add("x1", x0+200, 0)
		b.Add("x2", x0+400, 0)
		b.Add("y0", y0, 0)
		b.Add("y1", y0+200, 0)
		b.Add("y2", y0+400, 0)
		topo, err := b.Build()
		if err != nil {
			return nil, err
		}
		fx, err := flow.New("FX", 1, []topology.NodeID{0, 1, 2})
		if err != nil {
			return nil, err
		}
		fy, err := flow.New("FY", 1, []topology.NodeID{3, 4, 5})
		if err != nil {
			return nil, err
		}
		set, err := flow.NewSet(fx, fy)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(topo, set)
		if err != nil {
			return nil, err
		}
		return &scenario.Scenario{Name: "perm", Topo: topo, Flows: set, Inst: inst}, nil
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			a, err := build(false)
			if err != nil {
				t.Fatal(err)
			}
			bsc, err := build(true)
			if err != nil {
				t.Fatal(err)
			}
			// The oracle runs both chains on one engine, so their
			// events interleave; Run would shard them apart.
			cfg := netsim.Config{Protocol: p, Duration: 2 * sim.Second, Seed: 5}
			ra, err := netsim.RunSingleEngine(a.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := netsim.RunSingleEngine(bsc.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Per-flow observables must be identical across the
			// relabeling; node-keyed airtime swaps with the embedding,
			// so compare the flow view only.
			if got, want := renderRun(a, rb), renderRun(a, ra); got != want {
				t.Errorf("ID permutation changed per-flow results:\n got: %s\nwant: %s", got, want)
			}
		})
	}
}

// mobilityConfig is a mobile scenario of 30 nodes roaming a square of
// the given side in metres, wide enough that its epochs span several
// radio components. At 3000 m every flow is unreachable in every
// epoch; at 1500 m most flows route and deliver.
func mobilityConfig(rebuild bool, side float64) mobility.Config {
	return mobility.Config{
		Nodes: 30,
		Waypoint: mobility.WaypointConfig{
			Width: side, Height: side, MinSpeed: 1, MaxSpeed: 15, MaxPause: sim.Second,
		},
		Flows: []mobility.FlowSpec{
			{ID: "F1", Src: 0, Dst: 10},
			{ID: "F2", Src: 5, Dst: 15},
			{ID: "F3", Src: 2, Dst: 25, Weight: 2},
		},
		Protocol: netsim.Protocol2PAC,
		Epoch:    5 * sim.Second,
		Duration: 25 * sim.Second,
		Seed:     17,
		Rebuild:  rebuild,
	}
}

// shardingMobilityConfig is a sparse mobile network — 100 nodes on a
// 2500 m square, 20 flows — whose routed flows sit in two or more radio
// components in most epochs, so default epochs shard.
func shardingMobilityConfig(rebuild bool) mobility.Config {
	flows := make([]mobility.FlowSpec, 20)
	for i := range flows {
		flows[i] = mobility.FlowSpec{ID: flow.ID(fmt.Sprintf("F%d", i+1)), Src: i, Dst: i + 20}
	}
	return mobility.Config{
		Nodes: 100,
		Waypoint: mobility.WaypointConfig{
			Width: 2500, Height: 2500, MinSpeed: 1, MaxSpeed: 15, MaxPause: sim.Second,
		},
		Flows:    flows,
		Protocol: netsim.Protocol2PAC,
		Epoch:    5 * sim.Second,
		Duration: 40 * sim.Second,
		Seed:     17,
		Rebuild:  rebuild,
	}
}

// nopTracer observes nothing; attaching it keeps a run on the single
// engine without changing any outcome.
type nopTracer struct{}

func (nopTracer) Trace(mac.TraceEvent) {}

// TestShardedMobilityEquivalence composes sharding with the mobility
// epoch loops: default epochs, which shard with one Sharder
// re-sharding incrementally across epochs, must produce the epoch and
// total accounting of traced epochs, which run on the single engine,
// for both the rebuild and incremental pipelines.
func TestShardedMobilityEquivalence(t *testing.T) {
	for _, rebuild := range []bool{false, true} {
		cfg := shardingMobilityConfig(rebuild)
		sharded, err := mobility.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Net.Tracer = nopTracer{}
		plain, err := mobility.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.TotalDelivered != sharded.TotalDelivered || plain.TotalLost != sharded.TotalLost {
			t.Errorf("rebuild=%v: totals diverged: delivered %d vs %d, lost %d vs %d", rebuild,
				plain.TotalDelivered, sharded.TotalDelivered, plain.TotalLost, sharded.TotalLost)
		}
		for id, n := range plain.PerFlow {
			if sharded.PerFlow[id] != n {
				t.Errorf("rebuild=%v: flow %s delivered %d sharded vs %d single", rebuild, id, sharded.PerFlow[id], n)
			}
		}
		if len(plain.Epochs) != len(sharded.Epochs) {
			t.Fatalf("rebuild=%v: epoch counts differ", rebuild)
		}
		for i := range plain.Epochs {
			if plain.Epochs[i].Delivered != sharded.Epochs[i].Delivered || plain.Epochs[i].Lost != sharded.Epochs[i].Lost {
				t.Errorf("rebuild=%v: epoch %d diverged", rebuild, i)
			}
		}
	}
}

// TestShardedSingleComponentFallsBack checks the cutoff: Figure 6 is
// one radio component, so Run takes the single engine, and its result
// matches the oracle.
func TestShardedSingleComponentFallsBack(t *testing.T) {
	s, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: 2}
	if n := netsim.Shards(s.Inst, cfg); n != 1 {
		t.Fatalf("figure6 splits into %d shards, want 1", n)
	}
	single, err := netsim.RunSingleEngine(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := netsim.Run(s.Inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderDeep(s, r), renderDeep(s, single); got != want {
		t.Errorf("single-component run diverged from the oracle")
	}
}

// TestShardsRule pins which runs shard: a run whose flows sit in two
// or more radio components shards into one engine per such component
// unless it is traced, carries a fault plan or enables the watchdog;
// flowless components never count, so a run whose flows share one
// component — a single-component topology, or one tile of several —
// takes the single engine.
func TestShardsRule(t *testing.T) {
	fig6, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	base := netsim.Config{Protocol: netsim.Protocol2PAC}
	traced, faulted, watched := base, base, base
	traced.Tracer = nopTracer{}
	faulted.Fault = &fault.Plan{}
	watched.Watchdog = true
	for _, tc := range []struct {
		name string
		inst *core.Instance
		cfg  netsim.Config
		want int
	}{
		{"fig1x2", tiledFig1(t, 2).Inst, base, 2},
		{"fig6x3", tiledFig6(t, 3).Inst, base, 3},
		{"fig6x8", tiledFig6(t, 8).Inst, base, 8},
		{"fig6", fig6.Inst, base, 1},
		{"fig6x3-flows-in-1", firstTiles(t, 3, 1), base, 1},
		{"fig6x3-flows-in-2", firstTiles(t, 3, 2), base, 2},
		{"fig6x3-traced", tiledFig6(t, 3).Inst, traced, 1},
		{"fig6x3-fault", tiledFig6(t, 3).Inst, faulted, 1},
		{"fig6x3-watchdog", tiledFig6(t, 3).Inst, watched, 1},
	} {
		if got := netsim.Shards(tc.inst, tc.cfg); got != tc.want {
			t.Errorf("%s: %d shards, want %d", tc.name, got, tc.want)
		}
	}
}

// firstTiles returns a copies-tile Figure 6 tiling that keeps only the
// flows of its first k tiles, leaving the other tiles flowless.
func firstTiles(t *testing.T, copies, k int) *core.Instance {
	t.Helper()
	s := tiledFig6(t, copies)
	flows := s.Flows.Flows()
	set, err := flow.NewSet(flows[:len(flows)/copies*k]...)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(s.Topo, set)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestSharderCacheBounded checks that a Sharder reused across runs keeps
// only the last sharded run's sub-topologies: across mobility epochs
// and across a shrinking tiling, it never holds more entries than the
// run had shards.
func TestSharderCacheBounded(t *testing.T) {
	cfg := shardingMobilityConfig(false)
	sh := netsim.NewSharder()
	cfg.Net.Sharder = sh
	res, err := mobility.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every shard carries a flow, so one run's shards never outnumber
	// the flows any epoch routed.
	routed := 0
	for _, ep := range res.Epochs {
		routed = max(routed, ep.Routed)
	}
	if n := netsim.CachedShards(sh); n == 0 || n > routed {
		t.Errorf("after %d mobility epochs: %d cached sub-topologies, want 1..%d", len(res.Epochs), n, routed)
	}

	sh = netsim.NewSharder()
	for _, copies := range []int{6, 2} {
		s := tiledFig6(t, copies)
		if _, err := netsim.Run(s.Inst, netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second / 10, Seed: 1, Sharder: sh}); err != nil {
			t.Fatal(err)
		}
		if n := netsim.CachedShards(sh); n != copies {
			t.Errorf("after a %d-tile run: %d cached sub-topologies, want %d", copies, n, copies)
		}
	}
}

// TestMergeHelpers covers the stats merge primitives directly,
// including the overlap and mismatch cases the sharded path never
// produces.
func TestMergeHelpers(t *testing.T) {
	a, b := stats.NewSeries(sim.Second), stats.NewSeries(sim.Second)
	ca, cb := stats.NewCollector(), stats.NewCollector()
	id := flow.SubflowID{Flow: "F1", Hop: 1}
	ca.HopDelivered(id, true)
	ca.HopDelivered(id, true)
	cb.HopDelivered(id, true)
	a.Sample(sim.Second, ca)
	b.Sample(sim.Second, cb)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if w := a.Windows("F1"); len(w) != 1 || w[0] != 3 {
		t.Errorf("merged windows = %v, want [3]", w)
	}
	mismatch := stats.NewSeries(2 * sim.Second)
	if err := a.Merge(mismatch); err == nil {
		t.Error("period mismatch accepted")
	}
	ca.Merge(cb)
	if got := ca.Subflow(id); got != 3 {
		t.Errorf("merged collector subflow count = %d, want 3", got)
	}
}
