package netsim_test

import (
	"math/rand"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// TestParallelSweep1kNodes fans a protocol × seed sweep over a
// 1000-node random scenario through the worker pool. Under CI's -race
// run it exercises the grid-backed topology build, the incidence
// contention build, and concurrent reads of one shared instance at a
// scale the figure topologies never reach; the sequential re-run pins
// RunParallel's bit-identical ordering guarantee at that scale too.
func TestParallelSweep1kNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node sweep is slow")
	}
	rng := rand.New(rand.NewSource(7))
	sc, err := scenario.Random(scenario.RandomConfig{
		Nodes: 1000, Flows: 6, Width: 4400, Height: 4400, MaxHops: 12,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Inst.Flows.Len() == 0 {
		t.Fatal("scenario routed no flows")
	}
	cfg := netsim.Config{Duration: sim.Second / 2}
	jobs := netsim.SweepJobs(
		[]*core.Instance{sc.Inst},
		cfg,
		[]netsim.Protocol{netsim.Protocol80211, netsim.Protocol2PAC},
		[]int64{1, 2},
	)
	par, err := netsim.RunParallel(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, job := range jobs {
		seq, err := netsim.Run(job.Inst, job.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].Stats.TotalEndToEnd() != seq.Stats.TotalEndToEnd() ||
			par[i].Stats.Lost() != seq.Stats.Lost() ||
			par[i].Stats.Collisions() != seq.Stats.Collisions() {
			t.Fatalf("job %d (%s seed %d): parallel run differs from sequential",
				i, job.Cfg.Protocol, job.Cfg.Seed)
		}
	}
}
