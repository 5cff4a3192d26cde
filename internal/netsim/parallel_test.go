package netsim_test

import (
	"reflect"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// TestRunParallelMatchesSequential requires that a parallel sweep is
// bit-identical to sequential RunAll on every packet-level paper
// scenario: same collectors, shares, airtime accounting, and latency
// tracking per protocol, independent of worker interleaving.
func TestRunParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name      string
		build     func() (*scenario.Scenario, error)
		protocols []netsim.Protocol
	}{
		{"figure1", scenario.Figure1, []netsim.Protocol{
			netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.ProtocolDFS}},
		{"figure6", scenario.Figure6, []netsim.Protocol{
			netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.Protocol2PAD}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			cfg := netsim.Config{Duration: 2 * sim.Second, Seed: 42}
			want, err := netsim.RunAll(sc.Inst, cfg, tc.protocols...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := netsim.RunAllParallel(sc.Inst, cfg, tc.protocols...)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("got %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: parallel result diverged from sequential", tc.protocols[i])
				}
			}
		})
	}
}

// TestSweepJobsOrder pins the deterministic cross-product ordering:
// instances outermost, then protocols, then seeds.
func TestSweepJobsOrder(t *testing.T) {
	sc1, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	sc6, err := scenario.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	jobs := netsim.SweepJobs(
		[]*core.Instance{sc1.Inst, sc6.Inst},
		netsim.Config{Duration: sim.Second},
		[]netsim.Protocol{netsim.Protocol80211, netsim.Protocol2PAC},
		[]int64{1, 2, 3},
	)
	if len(jobs) != 12 {
		t.Fatalf("jobs = %d, want 12", len(jobs))
	}
	if jobs[0].Inst != sc1.Inst || jobs[11].Inst != sc6.Inst {
		t.Error("instance ordering wrong")
	}
	if jobs[0].Cfg.Protocol != netsim.Protocol80211 || jobs[0].Cfg.Seed != 1 {
		t.Errorf("job 0 = %+v", jobs[0].Cfg)
	}
	if jobs[4].Cfg.Protocol != netsim.Protocol2PAC || jobs[4].Cfg.Seed != 2 {
		t.Errorf("job 4 = %+v", jobs[4].Cfg)
	}
}

// TestRunParallelSeedSweep checks a multi-seed sweep against the same
// jobs run one at a time.
func TestRunParallelSeedSweep(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	jobs := netsim.SweepJobs(
		[]*core.Instance{sc.Inst},
		netsim.Config{Duration: 2 * sim.Second},
		[]netsim.Protocol{netsim.Protocol2PAC},
		[]int64{1, 2, 3, 4},
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
		if !reflect.DeepEqual(seq, par[i]) {
			t.Errorf("job %d: parallel diverged from sequential", i)
		}
	}
	// Distinct seeds should actually change the outcome, or the sweep
	// is not exercising the per-run RNG isolation.
	if reflect.DeepEqual(par[0].Stats, par[1].Stats) {
		t.Error("seeds 1 and 2 produced identical stats")
	}
}

// TestRunParallelEmpty covers the zero-job edge.
func TestRunParallelEmpty(t *testing.T) {
	res, err := netsim.RunParallel(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("res = %v, err = %v", res, err)
	}
}
