package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/netsim"
	"e2efair/internal/sim"
)

// served is one checked live set with the shares the daemon published
// for it: an input of phase 2.
type served struct {
	c   *checked
	pub map[string]float64
}

// simOutcome is phase 2 of 2PA-C on the served flow sets: the packet
// simulator enforcing the shares the daemon published.
type simOutcome struct {
	setupS  float64 // median instance build + warm-up
	simPerS float64 // simulated seconds over wall seconds, all measured runs
	// Packet counts of the first set's run.
	delivered, exchanges, collisions int64
	// Traced runs only: heap allocations per delivered packet and GC
	// cycles over all measured runs.
	allocsPerPkt float64
	gcCycles     uint32
	fails        []string
}

func (s served) config(seed int64, seconds float64) netsim.Config {
	pub := make(core.FlowAllocation, len(s.pub))
	for id, x := range s.pub {
		pub[flow.ID(id)] = x
	}
	return netsim.Config{
		Protocol: netsim.Protocol2PAC,
		Duration: sim.Time(seconds * float64(sim.Second)),
		Seed:     seed,
		Shares:   pub.Uniform(s.c.set),
	}
}

// simulate runs 2PA-C on each served set twice, on the default
// single-engine path, with the published shares installed as the
// phase-1 allocation. The two runs of a set must deliver the same
// packets over the same exchanges, and the installed shares must be
// Centralized's bit for bit. Several sets keep the rate from resting
// on one random flow set. With setup it first times the set-up of the
// first set: instance build and a warm-up run.
func simulate(sets []served, seed int64, seconds float64, setup, traced bool) (*simOutcome, error) {
	out := &simOutcome{}
	var setups []float64
	for i := 0; setup && i < setupReps; i++ {
		t0 := time.Now()
		inst, err := core.NewInstance(sets[0].c.inst.Topo, sets[0].c.set)
		if err != nil {
			return nil, err
		}
		if _, err := netsim.Run(inst, sets[0].config(seed, seconds/10)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if setup {
		out.setupS = medianOf(setups)
	}

	var before, after runtime.MemStats
	if traced {
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	var wall float64
	var delivered int64
	for si, s := range sets {
		var first *netsim.Result
		for rep := 0; rep < 2; rep++ {
			t0 := time.Now()
			r, err := netsim.Run(s.c.inst, s.config(seed, seconds))
			if err != nil {
				return nil, err
			}
			wall += time.Since(t0).Seconds()
			delivered += r.Stats.TotalEndToEnd()
			if first == nil {
				first = r
				continue
			}
			if d0, d1 := first.Stats.TotalEndToEnd(), r.Stats.TotalEndToEnd(); d0 != d1 || first.Airtime.Exchanges != r.Airtime.Exchanges {
				out.fails = append(out.fails, fmt.Sprintf("sim set %d: repeat delivered %d pkts / %d exchanges, first run %d / %d",
					si, d1, r.Airtime.Exchanges, d0, first.Airtime.Exchanges))
			}
		}
		for sf, x := range s.c.alloc.Uniform(s.c.set) {
			if math.Float64bits(first.Shares[sf]) != math.Float64bits(x) {
				out.fails = append(out.fails, fmt.Sprintf("sim set %d installed %v for %v, Centralized gives %v", si, first.Shares[sf], sf, x))
				break
			}
		}
		if first.Stats.TotalEndToEnd() == 0 {
			out.fails = append(out.fails, fmt.Sprintf("sim set %d delivered no packets", si))
		}
		if si == 0 {
			out.delivered, out.exchanges, out.collisions = first.Stats.TotalEndToEnd(), first.Airtime.Exchanges, first.Airtime.Collisions
		}
	}
	out.simPerS = float64(2*len(sets)) * seconds / wall
	if traced {
		runtime.ReadMemStats(&after)
		out.allocsPerPkt = float64(after.Mallocs-before.Mallocs) / float64(max(delivered, 1))
		out.gcCycles = after.NumGC - before.NumGC
	}
	return out, nil
}
