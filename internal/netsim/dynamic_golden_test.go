package netsim_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// churnEvents toggles F1 off and on every 5 s on Figure 1, so the
// active-flow sets {F1, F2} and {F2} alternate and recur.
var churnEvents = []netsim.FlowEvent{
	{At: 0, Start: []flow.ID{"F1", "F2"}},
	{At: 5 * sim.Second, Stop: []flow.ID{"F1"}},
	{At: 10 * sim.Second, Start: []flow.ID{"F1"}},
	{At: 15 * sim.Second, Stop: []flow.ID{"F1"}},
	{At: 20 * sim.Second, Start: []flow.ID{"F1"}},
}

// renderDynamic extends renderRun with the churn accounting: the
// reallocation count and the exact bits of every final share.
func renderDynamic(s *scenario.Scenario, r *netsim.DynamicResult) string {
	var shares []string
	for id, x := range r.FinalShares {
		shares = append(shares, fmt.Sprintf("%s:%016x", id, math.Float64bits(x)))
	}
	sort.Strings(shares)
	return fmt.Sprintf("%s reallocs=%d final=%v", renderRun(s, &r.Result), r.Reallocations, shares)
}

// goldenDynamic pins RunDynamic on the Figure 1 F1 toggle at seed 1.
// DFS is not pinned: its schedulers receive reallocated shares, which
// the pinned stacks' tag schedulers always did.
var goldenDynamic = map[string]string{
	"802.11":   `subflows={"F1.1": 3000, "F1.2": 350, "F2.1": 3912, "F2.2": 3911} e2e=4261 lost=2600 collisions=2303 sourceDrops=1039 reallocs=0 final=[]`,
	"two-tier": `subflows={"F1.1": 3000, "F1.2": 1039, "F2.1": 2817, "F2.2": 2817} e2e=3856 lost=1911 collisions=1574 sourceDrops=2133 reallocs=5 final=[F1.1:3fe8000000000000 F1.2:3fd0000000000000 F2.1:3fd8000000000000 F2.2:3fd8000000000000]`,
	"2PA-C":    `subflows={"F1.1": 2522, "F1.2": 1795, "F2.1": 2485, "F2.2": 2484} e2e=4279 lost=713 collisions=1801 sourceDrops=2899 reallocs=5 final=[F1.1:3fdfffff29406b2c F1.2:3fdfffff29406b2c F2.1:3fd000006b5fca6a F2.2:3fd000006b5fca6a]`,
	"2PA-D":    `subflows={"F1.1": 2522, "F1.2": 1795, "F2.1": 2485, "F2.2": 2484} e2e=4279 lost=713 collisions=1801 sourceDrops=2899 reallocs=5 final=[F1.1:3fdfffff29406b2c F1.2:3fdfffff29406b2c F2.1:3fd000006b5fca6a F2.2:3fd000006b5fca6a]`,
}

// TestGoldenDynamic holds churn runs byte-identical: packet counts,
// reallocations and final share bits.
func TestGoldenDynamic(t *testing.T) {
	s, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.Protocol2PAD} {
		t.Run(p.String(), func(t *testing.T) {
			r, err := netsim.RunDynamic(s.Inst, netsim.Config{Protocol: p, Duration: 25 * sim.Second, Seed: 1}, churnEvents)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderDynamic(s, r); got != goldenDynamic[p.String()] {
				t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, goldenDynamic[p.String()])
			}
		})
	}
}
