package netsim

import (
	"fmt"
	"slices"

	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/mac"
	"e2efair/internal/sim"
	"e2efair/internal/topology"
)

// salvageLimit bounds how many times one packet may be re-routed onto
// a detour before it is dropped as unroutable, so a pathological fault
// plan cannot make a packet circulate forever.
const salvageLimit = 3

// watchdogEvery is the invariant watchdog's sampling period.
const watchdogEvery = sim.Second

// maxViolations caps the recorded violation strings.
const maxViolations = 32

// ResilienceReport surfaces the fault/recovery metrics of one run:
// drops by cause, route-repair activity, allocation degradation, and
// any invariant violations the watchdog observed.
type ResilienceReport struct {
	// Emitted counts packets the sources generated; Injected counts
	// those the source queue accepted.
	Emitted  int64
	Injected int64
	// Delivered counts end-to-end deliveries.
	Delivered int64

	// Drops by cause. Every lost in-network packet is attributed to
	// exactly one of RetryDrops, QueueDrops or NoRouteDrops;
	// SourceDrops never entered the network.
	SourceDrops  int64
	QueueDrops   int64
	RetryDrops   int64
	NoRouteDrops int64

	// CorruptFrames counts unicast exchanges killed by the channel
	// loss model; InjectedLosses is the injector's own count of every
	// corruption it caused (broadcast receptions included), so
	// attribution can be verified.
	CorruptFrames  int64
	InjectedLosses int64

	// Recovery activity.
	LinkDeadSignals int64
	RouteErrors     int64
	Reroutes        int64
	Salvaged        int64
	Reallocations   int64
	DegradedAllocs  int64
	// GroupSolves and GroupReuses accumulate the allocator's churn
	// deltas across re-solves (centralized stacks only): a reroute that
	// perturbs one contention component solves that component's group
	// LP and copies cached shares for the rest.
	GroupSolves int64
	GroupReuses int64
	// RepairTime accumulates link-dead-to-reroute-installed time
	// across all reroutes.
	RepairTime sim.Time

	// Watchdog output.
	WatchdogChecks int64
	Violations     []string

	// FinalRoutes is each flow's route at the end of the run.
	FinalRoutes map[flow.ID][]topology.NodeID
}

// MeanTimeToRepair returns the average link-dead-to-reroute latency.
func (r *ResilienceReport) MeanTimeToRepair() sim.Time {
	if r.Reroutes == 0 {
		return 0
	}
	return r.RepairTime / sim.Time(r.Reroutes)
}

// ukey builds an undirected link key.
func ukey(a, b topology.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// linkAlive is the BFS keep predicate: a link is usable unless the MAC
// declared it dead or the injector holds it (or an endpoint) down.
func (r *runner) linkAlive(u, v topology.NodeID) bool {
	if r.organic[ukey(u, v)] {
		return false
	}
	if r.inj != nil && (!r.inj.NodeUp(u) || !r.inj.NodeUp(v) || !r.inj.LinkUp(u, v)) {
		return false
	}
	return true
}

func (r *runner) onCorrupt(_ *mac.Packet, _ topology.NodeID, _ sim.Time) {
	r.rep.CorruptFrames++
}

// onLinkDead is the RERR origin: the dead link is masked out of the
// routing view, the transmitter's queue is salvaged, and every flow
// routed over the link is scheduled for repair after an RERR-style
// per-hop propagation delay back to its source.
func (r *runner) onLinkDead(tx, rx topology.NodeID, now sim.Time) {
	r.rep.LinkDeadSignals++
	r.organic[ukey(tx, rx)] = true
	r.stack.Medium.DrainNode(tx, func(p *mac.Packet) bool {
		return p.Receiver() == rx
	}, func(p *mac.Packet) { r.salvageDrained(p, now) })
	r.scheduleFlowRepairs(tx, rx, now)
}

// scheduleFlowRepairs queues repair for every flow whose current route
// crosses the undirected link a-b.
func (r *runner) scheduleFlowRepairs(a, b topology.NodeID, now sim.Time) {
	affected := false
	for i := range r.flows {
		fl := &r.flows[i]
		h := hopIndex(fl.src.Path(), a, b)
		if h < 0 {
			continue
		}
		affected = true
		r.queueRepair(fl, now, now+sim.Time(h)*r.cfg.RERRHopDelay)
	}
	if affected {
		r.rep.RouteErrors++
	}
}

// queueRepair registers a flow for repair at time at, when the
// RERR-style notification reaches its source, of a break detected at
// brokenAt; an already pending repair keeps its earlier schedule.
func (r *runner) queueRepair(fl *flowRun, brokenAt, at sim.Time) {
	if fl.repairing {
		return
	}
	fl.unreachable = false
	fl.repairing, fl.repairAt, fl.brokenAt = true, at, brokenAt
	_ = r.stack.Engine.Schedule(at, 1, r.repairFn)
}

// hopIndex returns the hop index at which the route crosses the
// undirected link a-b, or -1.
func hopIndex(route []topology.NodeID, a, b topology.NodeID) int {
	for i := 0; i+1 < len(route); i++ {
		if (route[i] == a && route[i+1] == b) || (route[i] == b && route[i+1] == a) {
			return i
		}
	}
	return -1
}

// onFaultChange reacts to an injected transition: the MAC reconsiders
// the affected nodes, downed elements trigger proactive salvage and
// repair, and recoveries retry unreachable flows.
func (r *runner) onFaultChange(ch fault.Change) {
	now := ch.At
	med := r.stack.Medium
	if ch.Node >= 0 {
		if ch.Up {
			r.clearOrganicAt(ch.Node)
			med.FaultChanged(ch.Node)
			r.retryUnreachable(now)
			return
		}
		// Crash: flows routed through the node must detour; packets
		// queued at upstream neighbors toward it are salvaged.
		for fi := range r.flows {
			fl := &r.flows[fi]
			route := fl.src.Path()
			for i, n := range route {
				if n != ch.Node {
					continue
				}
				if i >= 1 {
					up := route[i-1]
					med.DrainNode(up, func(p *mac.Packet) bool {
						return p.Receiver() == ch.Node
					}, func(p *mac.Packet) { r.salvageDrained(p, now) })
				}
				r.queueRepair(fl, now, now+sim.Time(max(i-1, 0))*r.cfg.RERRHopDelay)
				break
			}
		}
		med.FaultChanged(ch.Node)
		return
	}
	if ch.Up {
		delete(r.organic, ukey(ch.A, ch.B))
		med.FaultChanged(ch.A)
		med.FaultChanged(ch.B)
		r.retryUnreachable(now)
		return
	}
	// Link down: salvage queued traffic on both directions, then
	// schedule repairs for flows crossing it.
	for _, end := range [2][2]topology.NodeID{{ch.A, ch.B}, {ch.B, ch.A}} {
		tx, rx := end[0], end[1]
		med.DrainNode(tx, func(p *mac.Packet) bool {
			return p.Receiver() == rx
		}, func(p *mac.Packet) { r.salvageDrained(p, now) })
	}
	r.scheduleFlowRepairs(ch.A, ch.B, now)
	med.FaultChanged(ch.A)
	med.FaultChanged(ch.B)
}

// clearOrganicAt forgets MAC-declared dead links incident to a node
// that just recovered: the declarations were (possibly) symptoms of
// the crash, and traffic re-probes the links naturally.
func (r *runner) clearOrganicAt(node topology.NodeID) {
	for k := range r.organic {
		if topology.NodeID(k>>32) == node || topology.NodeID(uint32(k)) == node {
			delete(r.organic, k)
		}
	}
}

// retryUnreachable re-queues repair for flows that previously found no
// route, now that something recovered.
func (r *runner) retryUnreachable(now sim.Time) {
	for i := range r.flows {
		if fl := &r.flows[i]; fl.unreachable {
			r.queueRepair(fl, fl.brokenAt, now+r.cfg.RERRHopDelay)
		}
	}
}

// repair processes due pending repairs in flow order — the batched
// route repair: one BFS per distinct flow, one reallocation for the
// whole batch.
func (r *runner) repair() {
	now := r.stack.Engine.Now()
	changed := false
	for i := range r.flows {
		fl := &r.flows[i]
		if !fl.repairing || fl.repairAt > now {
			continue
		}
		fl.repairing = false
		if r.reroute(fl, now) {
			changed = true
		}
	}
	if changed {
		r.reallocate(now)
	}
}

// reroute recomputes one flow's route over the masked topology; a flow
// with no route waits, unreachable, for a recovery.
func (r *runner) reroute(fl *flowRun, now sim.Time) bool {
	src, dst := fl.f.Source(), fl.f.Destination()
	if r.inj != nil && (!r.inj.NodeUp(src) || !r.inj.NodeUp(dst)) {
		fl.unreachable = true
		return false
	}
	if err := r.bfs.BuildFiltered(r.inst.Topo, src, r.keepFn); err != nil {
		fl.unreachable = true
		return false
	}
	path, err := r.bfs.PathTo(dst)
	if err != nil {
		fl.unreachable = true
		return false
	}
	if slices.Equal(path, fl.src.Path()) {
		return false
	}
	fl.src.SetPath(path)
	clear(r.instCache)
	r.rep.Reroutes++
	r.rep.RepairTime += now - fl.brokenAt
	r.trace(mac.TraceEvent{Kind: mac.TraceReroute, At: now, Node: src, Peer: dst})
	return true
}

// salvage re-routes an abandoned packet from its current node onto a
// fault-free path to its destination and re-injects it. It returns
// false when no detour exists (or the packet exhausted its salvage
// budget); the caller attributes and frees the packet.
func (r *runner) salvage(p *mac.Packet, now sim.Time) bool {
	if p.Salvage >= salvageLimit {
		return false
	}
	u := p.Transmitter()
	dst := p.Path[len(p.Path)-1]
	if u == dst {
		return false
	}
	if r.inj != nil && (!r.inj.NodeUp(u) || !r.inj.NodeUp(dst)) {
		return false
	}
	if err := r.bfs.BuildFiltered(r.inst.Topo, u, r.keepFn); err != nil {
		return false
	}
	path, err := r.bfs.PathTo(dst)
	if err != nil {
		return false
	}
	r.registerPath(p.Flow, path)
	p.Path = path
	p.Hop = 0
	p.Salvage++
	ok, injErr := r.stack.Medium.Inject(p)
	if injErr != nil || !ok {
		return false
	}
	r.trace(mac.TraceEvent{Kind: mac.TraceSalvage, At: now, Node: u, Peer: dst, Pkt: p})
	return true
}

// salvageDrained handles a packet pulled off a forwarding queue by a
// link-dead drain: salvage it, or attribute the loss as no-route.
func (r *runner) salvageDrained(p *mac.Packet, now sim.Time) {
	if r.salvage(p, now) {
		r.rep.Salvaged++
		return
	}
	inFlight := p.Hop >= 1
	r.col.QueueDrop(inFlight)
	if inFlight {
		r.col.DropAt(p.SubflowID())
	}
	r.rep.NoRouteDrops++
	r.stack.Medium.FreePacket(p)
}

// registerPath makes sure every transmitting node along a detour
// accepts the flow's subflow IDs, registering missing queues at the
// flow's current share. Existing registrations are left untouched.
func (r *runner) registerPath(fid flow.ID, path []topology.NodeID) {
	share := r.flow(fid).share
	for i := 0; i+1 < len(path); i++ {
		sched := r.stack.Medium.SchedulerAt(path[i])
		ss, ok := sched.(shareSetter)
		if !ok {
			continue
		}
		// AddSubflow fails harmlessly when the id is already known.
		_ = ss.AddSubflow(flow.SubflowID{Flow: fid, Hop: i}, share)
	}
}

// violation records a watchdog violation (bounded).
func (r *runner) violation(now sim.Time, msg string) {
	if len(r.rep.Violations) >= maxViolations {
		return
	}
	r.rep.Violations = append(r.rep.Violations, fmt.Sprintf("t=%.6f %s", now.Seconds(), msg))
}

// checkShareFloor verifies the basic-share floor of the paper's
// fairness constraint on the initial allocation.
func (r *runner) checkShareFloor(inst *core.Instance, shares core.SubflowAllocation) {
	switch r.cfg.Protocol {
	case Protocol2PAC, Protocol2PAD, ProtocolDFS:
		r.checkShareFloorInstance(inst, shares)
	}
}

// checkShareFloorInstance asserts every flow's installed share is at
// least its closed-form basic share (within tolerance) — the invariant
// both the LP and the degraded fallback must satisfy.
func (r *runner) checkShareFloorInstance(inst *core.Instance, shares core.SubflowAllocation) {
	if shares == nil {
		return
	}
	now := r.stack.Engine.Now()
	basic := core.BasicShares(inst)
	const tol = 1e-6
	for _, f := range inst.Flows.Flows() {
		got := shares[flow.SubflowID{Flow: f.ID(), Hop: 0}]
		if want := basic[f.ID()]; got+tol < want {
			r.violation(now, fmt.Sprintf("share floor: flow %s got %.9f < basic %.9f", f.ID(), got, want))
		}
	}
}

// checkInvariants runs the watchdog's conservation and queue-bound
// checks at the current instant. Events fire atomically between
// packet handoffs, so the balance holds exactly: every accepted
// packet is delivered, attributed to one drop cause, or still queued.
func (r *runner) checkInvariants() {
	r.rep.WatchdogChecks++
	now := r.stack.Engine.Now()
	backlog := int64(r.stack.Medium.Backlog())
	accounted := r.rep.Delivered + r.rep.QueueDrops + r.rep.RetryDrops + r.rep.NoRouteDrops + backlog
	if r.rep.Injected != accounted {
		r.violation(now, fmt.Sprintf("conservation: injected %d != delivered %d + drops %d + backlog %d",
			r.rep.Injected, r.rep.Delivered,
			r.rep.QueueDrops+r.rep.RetryDrops+r.rep.NoRouteDrops, backlog))
	}
	for i := 0; i < r.inst.Topo.NumNodes(); i++ {
		sched := r.stack.Medium.SchedulerAt(topology.NodeID(i))
		if sched == nil {
			continue
		}
		bound := r.cfg.QueueCap
		if ts, ok := sched.(*mac.TagScheduler); ok {
			bound = r.cfg.QueueCap * max(1, ts.NumQueues())
		}
		if got := sched.Backlog(); got > bound {
			// Named, not indexed: names are stable across shard/global
			// node numbering, so the violation text matches either way.
			r.violation(now, fmt.Sprintf("queue bound: node %s backlog %d > %d",
				r.inst.Topo.Name(topology.NodeID(i)), got, bound))
		}
	}
}
