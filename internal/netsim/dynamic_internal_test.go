package netsim

import (
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// TestDynamicReallocatesDFS stops F1 on Figure 1, which raises F2's
// share from B/4 to B/2. The re-solved share must reach the DFS
// scheduler at F2's source, not only DynamicResult.FinalShares.
func TestDynamicReallocatesDFS(t *testing.T) {
	sc, err := scenario.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	events := []FlowEvent{
		{At: 0, Start: []flow.ID{"F1", "F2"}},
		{At: 5 * sim.Second, Stop: []flow.ID{"F1"}},
	}
	cfg := Config{Protocol: ProtocolDFS, Duration: 10 * sim.Second, Seed: 1}.withDefaults()
	r, err := simulate(nil, sc.Inst, cfg, events, true)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := sc.Inst.Flows.Get("F2")
	if err != nil {
		t.Fatal(err)
	}
	id := flow.SubflowID{Flow: "F2", Hop: 0}
	if got := r.res.FinalShares[id]; got < 0.49 || got > 0.51 {
		t.Fatalf("final F2 share = %g, want 0.5", got)
	}
	ds, ok := r.stack.Medium.SchedulerAt(f2.Source()).(*mac.DFS)
	if !ok {
		t.Fatalf("scheduler at F2's source is %T, want *mac.DFS", r.stack.Medium.SchedulerAt(f2.Source()))
	}
	if got, _ := ds.Share(id); got != r.res.FinalShares[id] {
		t.Errorf("DFS at F2's source holds %g, want the reallocated %g", got, r.res.FinalShares[id])
	}
}
