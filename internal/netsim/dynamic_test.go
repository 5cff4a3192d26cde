package netsim_test

import (
	"errors"
	"testing"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/lp"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// TestDynamicReallocation stops F1 mid-run on the Fig. 1 topology:
// alone, F2's share grows from B/4 to B/2, so its windowed throughput
// should roughly double after the churn event.
func TestDynamicReallocation(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	const dur = 60 * sim.Second
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol:    netsim.Protocol2PAC,
		Duration:    dur,
		Seed:        1,
		SampleEvery: 5 * sim.Second,
	}, []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 30 * sim.Second, Stop: []flow.ID{"F1"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocations != 2 {
		t.Errorf("reallocations = %d, want 2", res.Reallocations)
	}
	// Final shares: F2 alone gets B/2 per hop.
	if got := res.FinalShares[sub("F2", 0)]; got < 0.49 || got > 0.51 {
		t.Errorf("final F2 share = %g, want 0.5", got)
	}
	// Windowed throughput of F2: compare an early window (with F1
	// active, share 1/4) against a late one (alone, share 1/2 —
	// though F2 then drains only at its 200 pkt/s CBR limit, still
	// well above the contended rate).
	wins := res.Series.Windows("F2")
	if len(wins) < 10 {
		t.Fatalf("series too short: %d windows", len(wins))
	}
	early := float64(wins[3] + wins[4]) // 15–25 s
	late := float64(wins[9] + wins[10]) // 45–55 s
	if late < 1.3*early {
		t.Errorf("F2 windowed throughput should grow after F1 stops: early %g late %g", early, late)
	}
	// F1 stops delivering after churn.
	f1 := res.Series.Windows("F1")
	if f1[len(f1)-1] != 0 {
		t.Errorf("F1 still delivering after stop: %v", f1)
	}
}

func TestDynamicUnknownFlow(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	_, err = netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: sim.Second,
	}, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F9"}}})
	if err == nil {
		t.Error("unknown flow in event should fail")
	}
}

func TestDynamicMatchesStaticWhenNoChurn(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: 20 * sim.Second, Seed: 3,
	}, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F1", "F2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalEndToEnd() == 0 {
		t.Fatal("nothing delivered")
	}
	// The throughput ratio should match the static allocation (≈2:1).
	f1 := float64(res.Stats.EndToEnd("F1"))
	f2 := float64(res.Stats.EndToEnd("F2"))
	if r := f1 / f2; r < 1.4 || r > 2.7 {
		t.Errorf("dynamic ratio %.2f, want ≈2", r)
	}
}

// TestDynamicChurnDeterministic oscillates F1 off and on so the same
// active-flow sets recur: later reallocations hit the run's instance
// cache and copy cached shares for group LPs solved earlier. Two identical
// runs must agree exactly, and the post-churn shares must match a
// fresh static computation of the same active set.
func TestDynamicChurnDeterministic(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	events := []netsim.FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 5 * sim.Second, Stop: []flow.ID{"F1"}},
		{At: 10 * sim.Second, Start: []flow.ID{"F1"}},
		{At: 15 * sim.Second, Stop: []flow.ID{"F1"}},
		{At: 20 * sim.Second, Start: []flow.ID{"F1"}},
	}
	for _, p := range []netsim.Protocol{netsim.Protocol2PAC, netsim.Protocol2PAD} {
		cfg := netsim.Config{Protocol: p, Duration: 25 * sim.Second, Seed: 7}
		a, err := netsim.RunDynamic(sc.Inst, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		b, err := netsim.RunDynamic(sc.Inst, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		if a.Reallocations != 5 || b.Reallocations != 5 {
			t.Errorf("%v: reallocations = %d, %d, want 5", p, a.Reallocations, b.Reallocations)
		}
		for id, share := range a.FinalShares {
			if b.FinalShares[id] != share {
				t.Errorf("%v: run-to-run final share mismatch for %v: %g vs %g",
					p, id, share, b.FinalShares[id])
			}
		}
		if a.Stats.TotalEndToEnd() != b.Stats.TotalEndToEnd() {
			t.Errorf("%v: delivered totals differ: %d vs %d",
				p, a.Stats.TotalEndToEnd(), b.Stats.TotalEndToEnd())
		}
		// Final active set is {F1, F2}: both flows hold their static
		// two-flow shares (B/2 and B/4) again after the last rejoin.
		if got := a.FinalShares[sub("F1", 0)]; got < 0.49 || got > 0.51 {
			t.Errorf("%v: final F1 share = %g, want 0.5", p, got)
		}
		if got := a.FinalShares[sub("F2", 0)]; got < 0.24 || got > 0.26 {
			t.Errorf("%v: final F2 share = %g, want 0.25", p, got)
		}
	}
}

func TestDynamic80211NoReallocation(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	res, err := netsim.RunDynamic(sc.Inst, netsim.Config{
		Protocol: netsim.Protocol80211, Duration: 5 * sim.Second, Seed: 1,
	}, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F1", "F2"}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reallocations != 0 {
		t.Errorf("802.11 performed %d reallocations", res.Reallocations)
	}
	if res.Stats.TotalEndToEnd() == 0 {
		t.Error("nothing delivered")
	}
}

// TestDynamicRestartKeepsRate restarts F1 twice: once with a stop and
// a start in the same event, once a few milliseconds after a stop,
// before the stopped source's next packet was due. Either way F1 keeps
// one emission schedule: 20 pkt/s for 10 s is 200 packets over F1.1,
// exactly as in the run without restarts.
func TestDynamicRestartKeepsRate(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{Protocol: netsim.Protocol80211, Duration: 10 * sim.Second, Seed: 1, PacketsPerS: 20}
	start := netsim.FlowEvent{At: 0, Start: []flow.ID{"F1", "F2"}}
	for name, events := range map[string][]netsim.FlowEvent{
		"same-event": {start, {At: sim.Second, Stop: []flow.ID{"F1"}, Start: []flow.ID{"F1"}}},
		"before-pending": {start,
			{At: 1010 * sim.Millisecond, Stop: []flow.ID{"F1"}},
			{At: 1020 * sim.Millisecond, Start: []flow.ID{"F1"}}},
	} {
		res, err := netsim.RunDynamic(sc.Inst, cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Stats.Subflow(sub("F1", 0)); got != 200 {
			t.Errorf("%s: F1.1 carried %d packets, want 200", name, got)
		}
	}
}

// TestDynamicReallocationError makes every re-solve fail: with both
// Figure 1 weights at 1e200 the max-min refinement LP is infeasible.
// The shares override skips the initial solve, so the failure first
// surfaces at the t=0 reallocation and must come back as an error, as
// it does from Run.
func TestDynamicReallocationError(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	var heavy []*flow.Flow
	for _, f := range sc.Inst.Flows.Flows() {
		hf, err := flow.New(f.ID(), 1e200, f.Path())
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, hf)
	}
	set, err := flow.NewSet(heavy...)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(sc.Inst.Topo, set)
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: 1}
	if _, err := netsim.Run(inst, cfg); !errors.Is(err, lp.ErrInfeasible) {
		t.Fatalf("Run: err = %v, want lp.ErrInfeasible", err)
	}
	cfg.Shares = core.SubflowAllocation{sub("F1", 0): 0.25, sub("F1", 1): 0.25, sub("F2", 0): 0.25, sub("F2", 1): 0.25}
	_, err = netsim.RunDynamic(inst, cfg, []netsim.FlowEvent{{At: 0, Start: []flow.ID{"F1", "F2"}}})
	if !errors.Is(err, lp.ErrInfeasible) {
		t.Errorf("RunDynamic: err = %v, want lp.ErrInfeasible", err)
	}
}

// TestDynamicWatchdog runs the F1 toggle under the invariant watchdog:
// packet conservation and the share floor hold across every churn
// reallocation, and the churn itself is unchanged.
func TestDynamicWatchdog(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: 25 * sim.Second, Seed: 1, Watchdog: true}
	res, err := netsim.RunDynamic(sc.Inst, cfg, churnEvents)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep == nil {
		t.Fatal("watchdog churn run returned no report")
	}
	if rep.WatchdogChecks == 0 {
		t.Error("watchdog never ran")
	}
	if len(rep.Violations) != 0 {
		t.Errorf("violations: %v", rep.Violations)
	}
	if res.Reallocations != len(churnEvents) {
		t.Errorf("reallocations = %d, want %d", res.Reallocations, len(churnEvents))
	}
}

// TestDynamicLinkCutReroutes cuts the diamond's A-B link while the
// flow, started by a churn event, is running: the run repairs the
// route onto A-D-C and keeps delivering.
func TestDynamicLinkCutReroutes(t *testing.T) {
	inst := diamondInstance(t)
	cfg := netsim.Config{
		Protocol: netsim.Protocol2PAC,
		Duration: 20 * sim.Second,
		Seed:     1,
		Fault:    &fault.Plan{Seed: 5, LinkFaults: []fault.LinkFault{{A: 0, B: 1, Down: 5 * sim.Second}}},
	}
	res, err := netsim.RunDynamic(inst, cfg, []netsim.FlowEvent{{At: sim.Second, Start: []flow.ID{"F1"}}})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Resilience
	if rep == nil {
		t.Fatal("fault churn run returned no report")
	}
	if rep.Reroutes == 0 {
		t.Fatal("link cut was never repaired")
	}
	if got := rep.FinalRoutes["F1"]; !pathEq(got, 0, 3, 2) {
		t.Errorf("final route %v, want A-D-C", got)
	}
	if res.Reallocations < 2 {
		t.Errorf("reallocations = %d, want the churn start and the repair", res.Reallocations)
	}
	if res.Stats.EndToEnd("F1") == 0 {
		t.Error("nothing delivered")
	}
}
