package main

import (
	"fmt"
	"math"

	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/topology"
)

// checked is the oracle side of a correctness check: the live set the
// generator tracked, its instance and the reference allocation.
type checked struct {
	set   *flow.Set
	inst  *core.Instance
	alloc core.FlowAllocation
}

// oracle prices the tracked live set with a fresh allocator:
// Allocator.Centralized with the refinement the daemon uses.
func oracle(topo *topology.Topology, live []flowSpec) (*checked, error) {
	flows := make([]*flow.Flow, len(live))
	for i, f := range live {
		nf, err := flow.New(flow.ID(f.ID), f.Weight, f.Path)
		if err != nil {
			return nil, err
		}
		flows[i] = nf
	}
	set, err := flow.NewSet(flows...)
	if err != nil {
		return nil, err
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		return nil, err
	}
	alloc, err := core.NewAllocatorWorkers(1).Centralized(inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return nil, err
	}
	return &checked{set: set, inst: inst, alloc: alloc}, nil
}

// floorSlack and cliqueSlack absorb rounding in the LP's arithmetic;
// both are far below any share the paper's LP can produce.
const (
	floorSlack  = 1e-12
	cliqueSlack = 1e-9
)

// verify compares published shares with the oracle and the paper's
// guarantees: the same bits as Centralized for every live flow and no
// other flow, every share at least its basic share r̂ᵢ = wᵢ/Σⱼwⱼvⱼ
// within its group, and no maximal clique loaded beyond B. It returns
// one message per failed check.
func (c *checked) verify(got map[string]float64) []string {
	var fails []string
	note := func(format string, a ...any) {
		if len(fails) < 5 {
			fails = append(fails, fmt.Sprintf(format, a...))
		} else if len(fails) == 5 {
			fails = append(fails, "...")
		}
	}
	if len(got) != len(c.alloc) {
		note("published %d shares, the live set has %d flows", len(got), len(c.alloc))
	}
	for id, want := range c.alloc {
		x, ok := got[string(id)]
		switch {
		case !ok:
			note("flow %s has no published share", id)
		case math.Float64bits(x) != math.Float64bits(want):
			note("flow %s: published %v, Centralized %v", id, x, want)
		}
	}
	basic := core.BasicShares(c.inst)
	for id, r := range basic {
		if c.alloc[id] < r-floorSlack {
			note("flow %s: share %v below its basic share %v", id, c.alloc[id], r)
		}
	}
	g := c.inst.Graph
	for _, q := range c.inst.Cliques {
		load := 0.0
		for _, v := range q {
			load += c.alloc[g.Subflow(v).ID.Flow]
		}
		if load > 1+cliqueSlack {
			note("maximal clique %v loaded %v > B", q, load)
		}
	}
	return fails
}
