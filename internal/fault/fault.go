// Package fault defines deterministic, seed-driven fault plans for the
// simulator: per-link packet-error rates, node crash/recover schedules,
// and link-flap windows. A Plan is pure data; Compile validates it
// against a topology size and produces an Injector that (a) implements
// the PHY channel's loss-model hook, (b) implements the MAC's
// link-state gate, and (c) arms its scheduled up/down transitions on
// the event engine. The injector owns its own random stream, seeded
// from the plan, so a run with a nil plan draws exactly the same MAC
// random numbers as a run without the fault layer compiled in at all —
// the property the netsim determinism goldens pin.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"e2efair/internal/sim"
	"e2efair/internal/topology"
	"e2efair/internal/xrand"
)

var (
	// ErrBadPlan wraps validation failures in Compile.
	ErrBadPlan = errors.New("fault: invalid plan")
	// ErrParse wraps syntax errors in Parse.
	ErrParse = errors.New("fault: parse error")
)

// LinkLoss sets the packet-error rate of the undirected link A-B.
type LinkLoss struct {
	A, B topology.NodeID
	Rate float64
}

// NodeFault crashes a node at Down and recovers it at Up. Up == 0
// means the node never recovers.
type NodeFault struct {
	Node     topology.NodeID
	Down, Up sim.Time
}

// LinkFault takes the undirected link A-B down at Down and restores it
// at Up. Up == 0 means the link never recovers.
type LinkFault struct {
	A, B     topology.NodeID
	Down, Up sim.Time
}

// Plan is a deterministic fault schedule. The zero Plan injects
// nothing.
type Plan struct {
	// Seed drives the injector's private random stream (frame-loss
	// draws). Plans with equal fields produce identical runs.
	Seed int64
	// DefaultLoss is the packet-error rate applied to every link
	// without an explicit LinkLoss entry.
	DefaultLoss float64
	LinkLoss    []LinkLoss
	NodeFaults  []NodeFault
	LinkFaults  []LinkFault
}

// Parse reads the textual plan format, one directive per line:
//
//	seed 42
//	loss * 0.02          # default packet-error rate
//	loss 2 3 0.25        # per-link rate (undirected)
//	node 4 down 10s up 20s
//	node 5 down 10s      # crash without recovery
//	link 1 2 down 5s up 8s
//
// Durations accept us/ms/s suffixes; a bare integer is microseconds.
// Blank lines and #-comments are ignored.
func Parse(text []byte) (*Plan, error) {
	p := &Plan{}
	for ln, line := range strings.Split(string(text), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := p.parseLine(fields); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrParse, ln+1, err)
		}
	}
	return p, nil
}

func (p *Plan) parseLine(fields []string) error {
	switch fields[0] {
	case "seed":
		if len(fields) != 2 {
			return fmt.Errorf("seed wants 1 argument, got %d", len(fields)-1)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed %q", fields[1])
		}
		p.Seed = v
		return nil
	case "loss":
		switch len(fields) {
		case 3:
			if fields[1] != "*" {
				return fmt.Errorf("loss wants '*' or two node ids before the rate")
			}
			r, err := parseRate(fields[2])
			if err != nil {
				return err
			}
			p.DefaultLoss = r
			return nil
		case 4:
			a, err := parseNode(fields[1])
			if err != nil {
				return err
			}
			b, err := parseNode(fields[2])
			if err != nil {
				return err
			}
			r, err := parseRate(fields[3])
			if err != nil {
				return err
			}
			p.LinkLoss = append(p.LinkLoss, LinkLoss{A: a, B: b, Rate: r})
			return nil
		default:
			return fmt.Errorf("loss wants 2 or 3 arguments, got %d", len(fields)-1)
		}
	case "node":
		if len(fields) != 4 && len(fields) != 6 {
			return fmt.Errorf("node wants 'node N down T [up T]'")
		}
		id, err := parseNode(fields[1])
		if err != nil {
			return err
		}
		down, up, err := parseWindow(fields[2:])
		if err != nil {
			return err
		}
		p.NodeFaults = append(p.NodeFaults, NodeFault{Node: id, Down: down, Up: up})
		return nil
	case "link":
		if len(fields) != 5 && len(fields) != 7 {
			return fmt.Errorf("link wants 'link A B down T [up T]'")
		}
		a, err := parseNode(fields[1])
		if err != nil {
			return err
		}
		b, err := parseNode(fields[2])
		if err != nil {
			return err
		}
		down, up, err := parseWindow(fields[3:])
		if err != nil {
			return err
		}
		p.LinkFaults = append(p.LinkFaults, LinkFault{A: a, B: b, Down: down, Up: up})
		return nil
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

// parseWindow reads "down T" or "down T up T".
func parseWindow(fields []string) (down, up sim.Time, err error) {
	if fields[0] != "down" {
		return 0, 0, fmt.Errorf("expected 'down', got %q", fields[0])
	}
	down, err = parseDuration(fields[1])
	if err != nil {
		return 0, 0, err
	}
	if len(fields) == 4 {
		if fields[2] != "up" {
			return 0, 0, fmt.Errorf("expected 'up', got %q", fields[2])
		}
		up, err = parseDuration(fields[3])
		if err != nil {
			return 0, 0, err
		}
	}
	return down, up, nil
}

func parseNode(s string) (topology.NodeID, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad node id %q", s)
	}
	return topology.NodeID(v), nil
}

func parseRate(s string) (float64, error) {
	r, err := strconv.ParseFloat(s, 64)
	if err != nil || r != r || r < 0 || r > 1 {
		return 0, fmt.Errorf("bad loss rate %q (want [0,1])", s)
	}
	return r, nil
}

func parseDuration(s string) (sim.Time, error) {
	unit := sim.Time(1)
	switch {
	case strings.HasSuffix(s, "us"):
		s = s[:len(s)-2]
	case strings.HasSuffix(s, "ms"):
		s, unit = s[:len(s)-2], sim.Millisecond
	case strings.HasSuffix(s, "s"):
		s, unit = s[:len(s)-1], sim.Second
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	t := sim.Time(v) * unit
	if unit != 1 && t/unit != sim.Time(v) {
		return 0, fmt.Errorf("duration %q overflows", s)
	}
	return t, nil
}

// Format renders the plan in the textual format Parse reads, so that
// Parse(p.Format()) reproduces p exactly (entry order included).
func (p *Plan) Format() []byte {
	var b strings.Builder
	if p.Seed != 0 {
		fmt.Fprintf(&b, "seed %d\n", p.Seed)
	}
	if p.DefaultLoss != 0 {
		fmt.Fprintf(&b, "loss * %s\n", formatRate(p.DefaultLoss))
	}
	for _, l := range p.LinkLoss {
		fmt.Fprintf(&b, "loss %d %d %s\n", l.A, l.B, formatRate(l.Rate))
	}
	for _, n := range p.NodeFaults {
		fmt.Fprintf(&b, "node %d %s\n", n.Node, formatWindow(n.Down, n.Up))
	}
	for _, l := range p.LinkFaults {
		fmt.Fprintf(&b, "link %d %d %s\n", l.A, l.B, formatWindow(l.Down, l.Up))
	}
	return []byte(b.String())
}

func formatRate(r float64) string {
	return strconv.FormatFloat(r, 'g', -1, 64)
}

func formatWindow(down, up sim.Time) string {
	if up == 0 {
		return fmt.Sprintf("down %dus", int64(down))
	}
	return fmt.Sprintf("down %dus up %dus", int64(down), int64(up))
}

// Change is one applied fault transition, delivered to the Arm
// callback after the injector's internal state has been updated.
type Change struct {
	At sim.Time
	// Node is the crashed/recovered node, or -1 for link transitions.
	Node topology.NodeID
	// A, B are the link endpoints, or -1 for node transitions.
	A, B topology.NodeID
	// Up is true for recovery transitions.
	Up bool
}

// transition is one scheduled state flip.
type transition struct {
	at   sim.Time
	node topology.NodeID // -1 for links
	a, b topology.NodeID // -1 for nodes
	up   bool
}

// Injector is a compiled plan bound to a topology size. It implements
// phy's loss-model hook (Corrupted) and mac's link-state gate
// (NodeUp/LinkUp), and counts every corruption it injects so harnesses
// can verify that each loss is attributed downstream.
type Injector struct {
	n           int
	rngs        []xrand.Rand
	defaultLoss float64
	lossy       bool
	loss        map[uint64]float64
	nodeDown    []int // reference counts: overlapping windows stack
	linkDown    map[uint64]int
	transitions []transition
	corruptions int64
}

// linkKey builds the undirected map key for a pair of in-range ids.
func linkKey(a, b topology.NodeID) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Compile validates the plan against a topology of numNodes nodes and
// returns a fresh injector. Compiling the same plan twice yields
// injectors that behave identically.
func (p *Plan) Compile(numNodes int) (*Injector, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("%w: need a positive node count, got %d", ErrBadPlan, numNodes)
	}
	checkNode := func(id topology.NodeID) error {
		if int(id) < 0 || int(id) >= numNodes {
			return fmt.Errorf("%w: node %d out of range [0,%d)", ErrBadPlan, id, numNodes)
		}
		return nil
	}
	in := &Injector{
		n:           numNodes,
		rngs:        make([]xrand.Rand, numNodes),
		defaultLoss: p.DefaultLoss,
		loss:        make(map[uint64]float64, len(p.LinkLoss)),
		nodeDown:    make([]int, numNodes),
		linkDown:    make(map[uint64]int),
	}
	if p.DefaultLoss < 0 || p.DefaultLoss > 1 {
		return nil, fmt.Errorf("%w: default loss %g outside [0,1]", ErrBadPlan, p.DefaultLoss)
	}
	for _, l := range p.LinkLoss {
		if err := checkNode(l.A); err != nil {
			return nil, err
		}
		if err := checkNode(l.B); err != nil {
			return nil, err
		}
		if l.A == l.B {
			return nil, fmt.Errorf("%w: loss entry on self-link %d", ErrBadPlan, l.A)
		}
		if l.Rate < 0 || l.Rate > 1 || l.Rate != l.Rate {
			return nil, fmt.Errorf("%w: loss rate %g outside [0,1]", ErrBadPlan, l.Rate)
		}
		in.loss[linkKey(l.A, l.B)] = l.Rate
	}
	in.lossy = p.DefaultLoss > 0 || len(in.loss) > 0
	for _, f := range p.NodeFaults {
		if err := checkNode(f.Node); err != nil {
			return nil, err
		}
		if f.Up != 0 && f.Up <= f.Down {
			return nil, fmt.Errorf("%w: node %d recovers at %d before crashing at %d", ErrBadPlan, f.Node, f.Up, f.Down)
		}
		in.transitions = append(in.transitions, transition{at: f.Down, node: f.Node, a: -1, b: -1})
		if f.Up != 0 {
			in.transitions = append(in.transitions, transition{at: f.Up, node: f.Node, a: -1, b: -1, up: true})
		}
	}
	for _, f := range p.LinkFaults {
		if err := checkNode(f.A); err != nil {
			return nil, err
		}
		if err := checkNode(f.B); err != nil {
			return nil, err
		}
		if f.A == f.B {
			return nil, fmt.Errorf("%w: link fault on self-link %d", ErrBadPlan, f.A)
		}
		if f.Up != 0 && f.Up <= f.Down {
			return nil, fmt.Errorf("%w: link %d-%d restores at %d before failing at %d", ErrBadPlan, f.A, f.B, f.Up, f.Down)
		}
		in.transitions = append(in.transitions, transition{at: f.Down, node: -1, a: f.A, b: f.B})
		if f.Up != 0 {
			in.transitions = append(in.transitions, transition{at: f.Up, node: -1, a: f.A, b: f.B, up: true})
		}
	}
	// Stable order: equal-time transitions fire in plan order, so a
	// plan replays identically regardless of map-free construction.
	sort.SliceStable(in.transitions, func(i, j int) bool {
		return in.transitions[i].at < in.transitions[j].at
	})
	for i := range in.rngs {
		in.rngs[i] = xrand.NodeStream(p.Seed, uint64(i))
	}
	return in, nil
}

// Lossy reports whether any loss rate is configured.
func (in *Injector) Lossy() bool { return in.lossy }

// Corrupted implements the PHY loss model: it draws from the
// transmitter's private stream whenever the tx-rx link has a positive
// loss rate, and counts each injected corruption. Keying the stream to
// the transmitter (rather than one shared injector stream) makes the
// draw sequence depend only on that node's own transmission order, not
// on how other nodes' events interleave with it.
func (in *Injector) Corrupted(tx, rx int, _ int) bool {
	if !in.lossy {
		return false
	}
	rate := in.defaultLoss
	if r, ok := in.loss[linkKey(topology.NodeID(tx), topology.NodeID(rx))]; ok {
		rate = r
	}
	if rate <= 0 {
		return false
	}
	if tx < 0 || tx >= in.n {
		return false
	}
	if in.rngs[tx].Float64() >= rate {
		return false
	}
	in.corruptions++
	return true
}

// Corruptions returns how many frame corruptions the injector has
// caused so far, for loss-attribution checks.
func (in *Injector) Corruptions() int64 { return in.corruptions }

// NodeUp implements the MAC link-state gate.
func (in *Injector) NodeUp(n topology.NodeID) bool {
	if int(n) < 0 || int(n) >= in.n {
		return false
	}
	return in.nodeDown[n] == 0
}

// LinkUp implements the MAC link-state gate for the undirected link
// a-b. It does not consult node state; callers check NodeUp too.
func (in *Injector) LinkUp(a, b topology.NodeID) bool {
	if len(in.linkDown) == 0 {
		return true
	}
	return in.linkDown[linkKey(a, b)] == 0
}

// Arm schedules every plan transition on the engine (phase 0, so
// fault flips precede same-instant packet injections and MAC
// attempts). onChange, if non-nil, fires after each transition has
// been applied to the injector's state.
func (in *Injector) Arm(eng *sim.Engine, onChange func(Change)) error {
	for i := range in.transitions {
		tr := in.transitions[i]
		err := eng.Schedule(tr.at, 0, func() {
			in.apply(tr)
			if onChange != nil {
				onChange(Change{At: tr.at, Node: tr.node, A: tr.a, B: tr.b, Up: tr.up})
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (in *Injector) apply(tr transition) {
	delta := 1
	if tr.up {
		delta = -1
	}
	if tr.node >= 0 {
		in.nodeDown[tr.node] += delta
		if in.nodeDown[tr.node] < 0 {
			in.nodeDown[tr.node] = 0
		}
		return
	}
	k := linkKey(tr.a, tr.b)
	in.linkDown[k] += delta
	if in.linkDown[k] <= 0 {
		delete(in.linkDown, k)
	}
}
