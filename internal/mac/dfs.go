package mac

import (
	"e2efair/internal/flow"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
	"e2efair/internal/xrand"
	"fmt"
)

// DefaultDFSScaling maps normalized packet service time to backoff
// slots so that a share of B/4 yields a mean window near CWmin.
const DefaultDFSScaling = 0.07

// DFS implements the Distributed Fair Scheduling baseline of Vaidya
// et al. (cited in the paper's related work): each head-of-line
// packet's contention backoff is drawn proportional to L/w — packet
// length over the subflow's weight — with a small multiplicative
// jitter, and collisions fall back to 802.11-style exponential
// recovery. Compared to the paper's phase-2 tag scheduler it keeps
// the weighted-backoff idea but drops the service-tag bookkeeping
// (virtual clocks, neighbor tables, receiver advice), making it the
// natural ablation of phase 2.
type DFS struct {
	queue    pktQueue
	capacity int
	shares   map[flow.SubflowID]float64
	bitsUS   float64
	scaling  float64
	cwMin    int
	cwMax    int
}

var _ Scheduler = (*DFS)(nil)

// DFSConfig configures a DFS scheduler.
type DFSConfig struct {
	Capacity     int
	BitsPerMicro float64
	Scaling      float64 // DefaultDFSScaling if 0
	CWMin        int
	CWMax        int
}

// NewDFS builds the scheduler; subflow weights are registered with
// AddSubflow.
func NewDFS(cfg DFSConfig) (*DFS, error) {
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("mac: dfs needs a positive capacity, got %d", cfg.Capacity)
	}
	if cfg.BitsPerMicro <= 0 {
		return nil, fmt.Errorf("mac: dfs needs a positive channel rate, got %g", cfg.BitsPerMicro)
	}
	if cfg.Scaling == 0 {
		cfg.Scaling = DefaultDFSScaling
	}
	return &DFS{
		capacity: cfg.Capacity,
		shares:   make(map[flow.SubflowID]float64),
		bitsUS:   cfg.BitsPerMicro,
		scaling:  cfg.Scaling,
		cwMin:    cfg.CWMin,
		cwMax:    cfg.CWMax,
	}, nil
}

// AddSubflow registers a subflow's share (used as its DFS weight).
func (d *DFS) AddSubflow(id flow.SubflowID, share float64) error {
	if _, ok := d.shares[id]; ok {
		return fmt.Errorf("mac: subflow %s already registered", id)
	}
	if share < minShare {
		share = minShare
	}
	d.shares[id] = share
	return nil
}

// Enqueue implements Scheduler.
func (d *DFS) Enqueue(p *Packet, _ sim.Time) bool {
	if _, ok := d.shares[p.SubflowID()]; !ok {
		return false
	}
	if d.queue.len() >= d.capacity {
		return false
	}
	d.queue.push(p)
	return true
}

// Head implements Scheduler.
func (d *DFS) Head(_ sim.Time) *Packet {
	if d.queue.len() == 0 {
		return nil
	}
	return d.queue.front()
}

// OnSuccess implements Scheduler.
func (d *DFS) OnSuccess(_ *Packet, _ float64, _ sim.Time) { d.queue.pop() }

// OnDrop implements Scheduler.
func (d *DFS) OnDrop(_ *Packet, _ sim.Time) { d.queue.pop() }

// DrawBackoff implements Scheduler: first attempt in
// [0.9, 1.1]·scaling·L/(w·B) slots; retries use exponential recovery.
func (d *DFS) DrawBackoff(rng *xrand.Rand, retries int, _ sim.Time) int {
	if retries > 0 {
		cw := d.cwMin
		for i := 0; i < retries && cw < d.cwMax; i++ {
			cw = 2*cw + 1
		}
		if cw > d.cwMax {
			cw = d.cwMax
		}
		return rng.Intn(cw + 1)
	}
	if d.queue.len() == 0 {
		return rng.Intn(d.cwMin + 1)
	}
	p := d.queue.front()
	w := d.shares[p.SubflowID()]
	bits := float64(p.PayloadBytes+dataOverheadBytes) * 8
	serviceUS := bits / (w * d.bitsUS)
	slots := d.scaling * serviceUS / float64(phySlotUS)
	rho := 0.9 + 0.2*rng.Float64()
	bi := int(slots * rho)
	if bi < 1 {
		bi = 1
	}
	if bi > d.cwMax {
		bi = d.cwMax
	}
	return bi
}

// phySlotUS mirrors phy.SlotTime in microseconds without importing
// phy.
const phySlotUS = 20

// Observe implements Scheduler (DFS keeps no neighbor state).
func (d *DFS) Observe(topology.NodeID, float64, sim.Time) {}

// Advise implements Scheduler.
func (d *DFS) Advise(topology.NodeID, sim.Time) float64 { return 0 }

// CurrentTag implements Scheduler.
func (d *DFS) CurrentTag() (float64, bool) { return 0, false }

// Backlog implements Scheduler.
func (d *DFS) Backlog() int { return d.queue.len() }

// SetShare updates a registered subflow's weight at runtime,
// supporting online reallocation after route repair.
func (d *DFS) SetShare(id flow.SubflowID, share float64) error {
	if _, ok := d.shares[id]; !ok {
		return fmt.Errorf("mac: subflow %s not registered", id)
	}
	if share < minShare {
		share = minShare
	}
	d.shares[id] = share
	return nil
}

// Share returns a registered subflow's current share.
func (d *DFS) Share(id flow.SubflowID) (float64, bool) {
	share, ok := d.shares[id]
	return share, ok
}

// Drain implements Drainer.
func (d *DFS) Drain(match func(*Packet) bool, out func(*Packet)) int {
	return d.queue.filter(match, out)
}
