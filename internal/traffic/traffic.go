// Package traffic generates workloads for the packet simulator. The
// paper's evaluation drives every flow with a constant bit rate source
// of 200 packets per second and 512-byte packets; sources are greedy
// relative to the achievable shares, keeping every flow backlogged.
package traffic

import (
	"errors"
	"fmt"

	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

// ErrBadRate is returned for non-positive packet rates.
var ErrBadRate = errors.New("traffic: packet rate must be positive")

// phaseInject matches the MAC's injection phase ordering: packet
// arrivals happen after transmissions complete at the same instant.
const phaseInject sim.Phase = 1

// CBRConfig describes one constant-bit-rate source.
type CBRConfig struct {
	Flow         *flow.Flow
	PacketsPerS  float64
	PayloadBytes int
	// Offset staggers the first packet of a StartCBR source to avoid
	// synchronized sources.
	Offset sim.Time
	// Until stops generation (exclusive); zero means no packets.
	Until sim.Time
	// OnEmit, when set, observes every emitted packet: accepted is
	// false when the source queue rejected it.
	OnEmit func(accepted bool)
}

// CBR is a constant-bit-rate source that can be switched on and off.
// A source switched back on while its next packet is still pending
// resumes that schedule, so a restart never runs two emission chains.
type CBR struct {
	eng      *sim.Engine
	medium   *mac.Medium
	cfg      CBRConfig
	interval sim.Time
	path     []topology.NodeID
	seq      int64
	on       bool
	pending  bool // an emission is scheduled
	// emitFn is the bound emit method, created once so the periodic
	// re-scheduling reuses a single function value.
	emitFn func()
}

// NewCBR returns a CBR source that is switched off.
func NewCBR(eng *sim.Engine, medium *mac.Medium, cfg CBRConfig) (*CBR, error) {
	if cfg.PacketsPerS <= 0 {
		return nil, fmt.Errorf("%w: %g", ErrBadRate, cfg.PacketsPerS)
	}
	if cfg.PayloadBytes <= 0 {
		return nil, fmt.Errorf("traffic: payload must be positive, got %d", cfg.PayloadBytes)
	}
	interval := sim.Time(float64(sim.Second) / cfg.PacketsPerS)
	if interval <= 0 {
		interval = 1
	}
	s := &CBR{
		eng:      eng,
		medium:   medium,
		cfg:      cfg,
		interval: interval,
		path:     cfg.Flow.Path(),
	}
	s.emitFn = s.emit
	return s, nil
}

// StartCBR returns a CBR source switched on with its first packet due
// at cfg.Offset.
func StartCBR(eng *sim.Engine, medium *mac.Medium, cfg CBRConfig) (*CBR, error) {
	s, err := NewCBR(eng, medium, cfg)
	if err != nil || cfg.Offset >= cfg.Until {
		return s, err
	}
	s.on, s.pending = true, true
	return s, eng.Schedule(cfg.Offset, phaseInject, s.emitFn)
}

// Start switches the source on, emitting its first packet now unless
// one is already pending.
func (s *CBR) Start() {
	if s.on {
		return
	}
	s.on = true
	if !s.pending {
		s.emit()
	}
}

// Stop switches the source off; a pending emission is dropped.
func (s *CBR) Stop() { s.on = false }

// Path returns the route the source's packets take.
func (s *CBR) Path() []topology.NodeID { return s.path }

// SetPath routes the source's future packets over path.
func (s *CBR) SetPath(path []topology.NodeID) { s.path = path }

// emit injects one packet and schedules the next arrival. Packets come
// from the medium's free list; a source-dropped packet goes straight
// back to it once OnEmit has seen it.
func (s *CBR) emit() {
	s.pending = false
	if !s.on {
		return
	}
	now := s.eng.Now()
	p := s.medium.AllocPacket()
	p.Flow = s.cfg.Flow.ID()
	p.Seq = s.seq
	p.Path = s.path
	p.PayloadBytes = s.cfg.PayloadBytes
	p.Born = now
	s.seq++
	ok, err := s.medium.Inject(p)
	if s.cfg.OnEmit != nil {
		s.cfg.OnEmit(err == nil && ok)
	}
	if err == nil && !ok {
		s.medium.FreePacket(p)
	}
	next := now + s.interval
	if next < s.cfg.Until {
		s.pending = true
		_ = s.eng.Schedule(next, phaseInject, s.emitFn)
	}
}
