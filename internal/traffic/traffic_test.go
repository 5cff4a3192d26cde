package traffic

import (
	"errors"
	"testing"

	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

func setup(t *testing.T, queueCap int) (*sim.Engine, *mac.Medium, *flow.Flow, *int) {
	t.Helper()
	topo, err := topology.NewBuilder(topology.DefaultRange, 0).
		Add("A", 0, 0).Add("B", 200, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	delivered := 0
	var medium *mac.Medium
	medium, err = mac.NewMedium(eng, topo, mac.Config{Seed: 1}, mac.Hooks{
		OnDelivered: func(p *mac.Packet, _ sim.Time) { delivered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := medium.Attach(0, mac.NewFIFO(queueCap, 31, 1023)); err != nil {
		t.Fatal(err)
	}
	if err := medium.Attach(1, mac.NewFIFO(queueCap, 31, 1023)); err != nil {
		t.Fatal(err)
	}
	f, err := flow.New("F1", 1, []topology.NodeID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, medium, f, &delivered
}

func TestCBRRateValidation(t *testing.T) {
	eng, medium, f, _ := setup(t, 50)
	_, err := StartCBR(eng, medium, CBRConfig{Flow: f, PacketsPerS: 0, PayloadBytes: 512, Until: sim.Second})
	if !errors.Is(err, ErrBadRate) {
		t.Errorf("err = %v", err)
	}
	if _, err := StartCBR(eng, medium, CBRConfig{Flow: f, PacketsPerS: 10, PayloadBytes: 0, Until: sim.Second}); err == nil {
		t.Error("zero payload should fail")
	}
}

func TestCBRGeneratesExpectedCount(t *testing.T) {
	eng, medium, f, delivered := setup(t, 5000)
	// 50 packets/s for 2 s, starting at 0: packets at 0, 20ms, …
	_, err := StartCBR(eng, medium, CBRConfig{
		Flow: f, PacketsPerS: 50, PayloadBytes: 512, Until: 2 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(10 * sim.Second)
	if *delivered != 100 {
		t.Errorf("delivered %d packets, want 100", *delivered)
	}
}

func TestCBRSourceDropWhenOverloaded(t *testing.T) {
	eng, medium, f, _ := setup(t, 5)
	drops := 0
	// 2000 packets/s grossly exceeds the ~350/s link capacity; with a
	// 5-packet queue most arrivals are source drops.
	_, err := StartCBR(eng, medium, CBRConfig{
		Flow: f, PacketsPerS: 2000, PayloadBytes: 512, Until: sim.Second,
		OnEmit: func(accepted bool) {
			if !accepted {
				drops++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(2 * sim.Second)
	if drops == 0 {
		t.Error("expected source drops under overload")
	}
}

func TestCBROffsetAfterUntil(t *testing.T) {
	eng, medium, f, delivered := setup(t, 50)
	_, err := StartCBR(eng, medium, CBRConfig{
		Flow: f, PacketsPerS: 10, PayloadBytes: 512,
		Offset: 2 * sim.Second, Until: sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(5 * sim.Second)
	if *delivered != 0 {
		t.Errorf("no packets expected, got %d", *delivered)
	}
}

// TestCBRStopStart switches a 10 pkt/s source on at 0, restarts it
// before its pending packet (stop 0.55 s, start 0.56 s) and within one
// instant (1.0 s), and stops it for good at 1.45 s: one emission chain
// throughout, packets at 0.0, 0.1, …, 1.4.
func TestCBRStopStart(t *testing.T) {
	eng, medium, f, delivered := setup(t, 5000)
	s, err := NewCBR(eng, medium, CBRConfig{Flow: f, PacketsPerS: 10, PayloadBytes: 512, Until: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []struct {
		at sim.Time
		fn func()
	}{
		{0, s.Start},
		{550 * sim.Millisecond, s.Stop},
		{560 * sim.Millisecond, s.Start},
		{sim.Second, s.Stop},
		{sim.Second, s.Start},
		{1450 * sim.Millisecond, s.Stop},
	} {
		if err := eng.Schedule(ev.at, phaseInject, ev.fn); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run(5 * sim.Second)
	if *delivered != 15 {
		t.Errorf("delivered %d packets, want 15", *delivered)
	}
}
