package netsim

import "e2efair/internal/core"

// RunSingleEngine is the single-engine oracle the sharded runs are
// checked against: Run with the sharding decision bypassed.
func RunSingleEngine(inst *core.Instance, cfg Config) (*Result, error) {
	r, err := simulate(nil, inst, cfg.withDefaults(), nil, false)
	if err != nil {
		return nil, err
	}
	return &r.res.Result, nil
}

// Shards reports how many engines Run splits the run into: one per
// radio component that carries a flow, or 1 on the single engine.
func Shards(inst *core.Instance, cfg Config) int {
	_, n := planShards(inst, cfg.withDefaults())
	return n
}

// CachedShards reports how many sub-topologies sh holds.
func CachedShards(sh *Sharder) int { return len(sh.cache) }
