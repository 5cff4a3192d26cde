package netsim

import (
	"e2efair/internal/core"
	"e2efair/internal/flow"
	"e2efair/internal/sim"
)

// FlowEvent starts and stops flows at a point in simulated time. Flows
// named must exist in the instance.
type FlowEvent struct {
	At    sim.Time
	Start []flow.ID
	Stop  []flow.ID
}

// DynamicResult extends Result with reallocation accounting.
type DynamicResult struct {
	Result
	// Reallocations counts first-phase recomputations triggered by
	// flow churn (and, in a run with a fault plan, by route repair).
	Reallocations int
	// GroupSolves and GroupReuses accumulate the allocator's churn
	// deltas across the run's solves: group LPs solved fresh versus
	// served from the share cache. A churn event that perturbs one
	// contention component solves one group and reuses the rest.
	GroupSolves int
	GroupReuses int
	// FinalShares is the allocation active when the run ended.
	FinalShares core.SubflowAllocation
}

// RunDynamic simulates flow churn: no flow sends until an event starts
// it, and at each event the set of active (backlogged) flows changes
// and — for the allocation-driven protocol stacks — the first phase is
// re-run over the active flows only, with the new shares installed into
// the running schedulers. This exercises the paper's assumption that
// allocation tracks the set of backlogged flows. A failed re-solve ends
// the run with its error, unless the run has a fault plan or the
// watchdog, which degrade it as Run does.
func RunDynamic(inst *core.Instance, cfg Config, events []FlowEvent) (*DynamicResult, error) {
	r, err := simulate(nil, inst, cfg.withDefaults(), events, true)
	if err != nil {
		return nil, err
	}
	return r.res, nil
}
