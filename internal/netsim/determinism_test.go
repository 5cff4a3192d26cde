package netsim_test

// Determinism regression tests for the MAC/PHY fast path: the packet
// simulator must be a pure function of (instance, config, seed). Two
// safeguards live here. First, back-to-back runs of the same
// configuration must agree exactly — catching any hidden shared state
// (scratch buffers, packet recycling, map iteration) introduced by the
// allocation-free datapath. Second, the per-subflow packet counts of
// the Figure 1 and Figure 6 scenarios at seed 1 are pinned to golden
// values captured before that datapath was rewritten, so the
// optimizations provably did not change a single simulated outcome.

import (
	"fmt"
	"sort"
	"testing"

	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// goldenDuration keeps the pinned runs short enough for the test
// suite while still covering thousands of exchanges per protocol.
const goldenDuration = 10 * sim.Second

var allProtocols = []netsim.Protocol{
	netsim.Protocol80211,
	netsim.ProtocolTwoTier,
	netsim.Protocol2PAC,
	netsim.Protocol2PAD,
	netsim.ProtocolDFS,
}

// renderRun flattens a run's observable counters into one canonical
// string, so runs can be compared (and pinned) wholesale.
func renderRun(s *scenario.Scenario, r *netsim.Result) string {
	var subs []string
	for _, f := range s.Flows.Flows() {
		for _, sf := range f.Subflows() {
			subs = append(subs, fmt.Sprintf("%q: %d", sf.ID.String(), r.Stats.Subflow(sf.ID)))
		}
	}
	sort.Strings(subs)
	out := "subflows={"
	for i, sub := range subs {
		if i > 0 {
			out += ", "
		}
		out += sub
	}
	return out + fmt.Sprintf("} e2e=%d lost=%d collisions=%d sourceDrops=%d",
		r.Stats.TotalEndToEnd(), r.Stats.Lost(), r.Stats.Collisions(), r.Stats.SourceDrops())
}

// goldenRuns pins every protocol stack's counts on the paper's two
// scenarios at seed 1. Any divergence means the simulated system
// changed, not just its implementation. Regenerated when the RNG moved
// from one engine-order-dependent stream to per-node streams keyed by
// global node ID (the scheme that makes sharded execution
// byte-identical to single-engine execution); the sharded/single
// equivalence tests hold these same values fixed across shard counts.
var goldenRuns = map[string]string{
	"fig1/802.11":   `subflows={"F1.1": 2000, "F1.2": 161, "F2.1": 1556, "F2.2": 1551} e2e=1712 lost=1789 collisions=1082 sourceDrops=395`,
	"fig1/two-tier": `subflows={"F1.1": 2000, "F1.2": 593, "F2.1": 1109, "F2.2": 1108} e2e=1701 lost=1357 collisions=1068 sourceDrops=842`,
	"fig1/2PA-C":    `subflows={"F1.1": 1474, "F1.2": 1113, "F2.1": 796, "F2.2": 796} e2e=1909 lost=329 collisions=1223 sourceDrops=1631`,
	"fig1/2PA-D":    `subflows={"F1.1": 1474, "F1.2": 1113, "F2.1": 796, "F2.2": 796} e2e=1909 lost=329 collisions=1223 sourceDrops=1631`,
	"fig1/2PA-DFS":  `subflows={"F1.1": 2000, "F1.2": 248, "F2.1": 1428, "F2.2": 1427} e2e=1675 lost=1702 collisions=1261 sourceDrops=523`,
	"fig6/802.11":   `subflows={"F1.1": 1434, "F1.2": 862, "F1.3": 654, "F1.4": 654, "F2.1": 762, "F3.1": 1996, "F4.1": 335, "F4.2": 335, "F5.1": 2000} e2e=5747 lost=727 collisions=3894 sourceDrops=3328`,
	"fig6/two-tier": `subflows={"F1.1": 1222, "F1.2": 840, "F1.3": 683, "F1.4": 683, "F2.1": 843, "F3.1": 1487, "F4.1": 772, "F4.2": 771, "F5.1": 1072} e2e=4856 lost=472 collisions=3192 sourceDrops=4356`,
	"fig6/2PA-C":    `subflows={"F1.1": 952, "F1.2": 896, "F1.3": 801, "F1.4": 800, "F2.1": 755, "F3.1": 1777, "F4.1": 328, "F4.2": 328, "F5.1": 1998} e2e=5658 lost=114 collisions=3426 sourceDrops=4005`,
	"fig6/2PA-D":    `subflows={"F1.1": 963, "F1.2": 883, "F1.3": 820, "F1.4": 820, "F2.1": 639, "F3.1": 1093, "F4.1": 829, "F4.2": 828, "F5.1": 1199} e2e=4579 lost=108 collisions=3148 sourceDrops=5029`,
	"fig6/2PA-DFS":  `subflows={"F1.1": 1419, "F1.2": 718, "F1.3": 697, "F1.4": 696, "F2.1": 529, "F3.1": 2000, "F4.1": 361, "F4.2": 360, "F5.1": 1999} e2e=5584 lost=653 collisions=5013 sourceDrops=3541`,
}

// TestRunRepeatable runs every protocol stack twice on Figure 1 with
// an identical config and demands byte-identical counters: packet
// recycling and scratch reuse must not leak state between events, let
// alone between runs.
func TestRunRepeatable(t *testing.T) {
	s, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			cfg := netsim.Config{Protocol: p, Duration: goldenDuration, Seed: 7}
			r1, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := netsim.Run(s.Inst, cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b := renderRun(s, r1), renderRun(s, r2)
			if a != b {
				t.Errorf("runs diverged:\n first: %s\nsecond: %s", a, b)
			}
		})
	}
}

// TestGoldenCounts pins the simulation outcomes at seed 1 to the
// counts captured before the zero-allocation datapath rewrite.
func TestGoldenCounts(t *testing.T) {
	for _, fig := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
	}{{"fig1", scenario.Figure1}, {"fig6", scenario.Figure6}} {
		s, err := fig.build()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range allProtocols {
			key := fig.name + "/" + p.String()
			t.Run(key, func(t *testing.T) {
				r, err := netsim.Run(s.Inst, netsim.Config{Protocol: p, Duration: goldenDuration, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderRun(s, r); got != goldenRuns[key] {
					t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, goldenRuns[key])
				}
			})
		}
	}
}
