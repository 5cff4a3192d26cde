package netsim_test

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
)

// goldenMultiFile holds the renders TestGoldenMultiComponent pins,
// captured from default-config single-engine runs before the
// simulator began sharding multi-component topologies on its own.
const goldenMultiFile = "testdata/golden_multicomponent.json"

// multiComponentRenders renders every run TestGoldenMultiComponent
// pins: the tiled Figure 1 (two components) and Figure 6 (three
// components) under all five stacks, and the mobility epoch loops,
// rebuild and incremental, on the mobilityConfig squares, keyed by a
// stable name.
func multiComponentRenders(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, tc := range []struct {
		name string
		s    *scenario.Scenario
	}{{"fig1x2", tiledFig1(t, 2)}, {"fig6x3", tiledFig6(t, 3)}} {
		for _, p := range allProtocols {
			r, err := netsim.Run(tc.s.Inst, netsim.Config{
				Protocol:    p,
				Duration:    3 * sim.Second,
				Seed:        1,
				SampleEvery: sim.Second,
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, p, err)
			}
			out[tc.name+"/"+p.String()] = renderDeep(tc.s, r)
		}
	}
	for _, side := range []float64{3000, 1500} {
		for _, rebuild := range []bool{false, true} {
			r, err := mobility.Run(mobilityConfig(rebuild, side))
			if err != nil {
				t.Fatal(err)
			}
			render := fmt.Sprintf("delivered=%d lost=%d epochs=", r.TotalDelivered, r.TotalLost)
			for _, ep := range r.Epochs {
				render += fmt.Sprintf("[%d %d]", ep.Delivered, ep.Lost)
			}
			out[fmt.Sprintf("mobility/side=%v/rebuild=%v", side, rebuild)] = render
		}
	}
	return out
}

// TestGoldenMultiComponent pins default-config runs on topologies of
// several radio components, whichever engine the simulator picks for
// them, to the single-engine renders in goldenMultiFile.
func TestGoldenMultiComponent(t *testing.T) {
	raw, err := os.ReadFile(goldenMultiFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := multiComponentRenders(t)
	if len(got) != len(want) {
		t.Fatalf("rendered %d runs, golden file holds %d", len(got), len(want))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: golden mismatch:\n got: %s\nwant: %s", key, got[key], w)
		}
	}
}
