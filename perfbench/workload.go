package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"e2efair"
	"e2efair/internal/routing"
	"e2efair/internal/topology"
)

// workload is one traffic mix against fairallocd plus the phase-2
// packet simulation of a flow set it served. Every workload runs both
// halves of 2PA-C so that every end-to-end metric exists on every
// workload; which half dominates is what sets the workloads apart.
type workload struct {
	Name string
	Why  string
	// Population is the live flow count held by the rotation.
	Population int
	// FixedRate is the offered write rate (register + remove events
	// per second) of the fixed-rate phase.
	FixedRate float64
	// ReadsPerWrite is the share reads offered per write event.
	ReadsPerWrite float64
	// LimitMs is the write p99 limit max_write_rate_eps is searched
	// against.
	LimitMs float64
	// SearchFrom is the first offered write rate of the knee search.
	SearchFrom float64
	// Durable runs the daemon with -data-dir and -fsync always.
	Durable bool
	// SimSeconds is the simulated duration of one measured sim run.
	SimSeconds float64
	// SimSets is how many of a round's checked live sets phase 2
	// simulates, spread from the first to the last: more where one
	// random flow set moves the sim's speed.
	SimSets int
	// Ungated, when set, says why the workload is left out of
	// BENCHMARK.json and of --workload all: it runs on request only.
	Ungated  string
	newWorld func() (*world, error)
}

// workloads is the benchmark's workload table; BENCHMARK.json lists
// the gated ones with the same names and reasons.
var workloads = []*workload{
	{
		Name:          "churn-sparse",
		Why:           "1024 flows on 256 disjoint 4-flow tiles, 4 reads per write; tiny LPs, so the HTTP edge, shard queue and directory dominate (knee at write p99 <= 50 ms)",
		Population:    1024,
		FixedRate:     50,
		ReadsPerWrite: 4,
		LimitMs:       50,
		SearchFrom:    1400,
		SimSeconds:    0.5,
		SimSets:       1,
		newWorld:      sparseWorld,
	},
	{
		Name:          "churn-dense",
		Why:           "20 live flows of up to 6 hops in one contention group of a 400-node 3 km2 topology; clique enumeration and the group LP dominate (knee at write p99 <= 250 ms)",
		Population:    20,
		FixedRate:     50,
		ReadsPerWrite: 1,
		LimitMs:       250,
		SearchFrom:    250,
		Ungated:       "run-to-run spread reaches the 0.25 bound on a 2-vCPU host, and 1 of 10 measured runs hit an HTTP 500 from the allocator (max-min refinement: lp: infeasible)",
		SimSeconds:    2,
		SimSets:       4,
		newWorld:      denseWorld,
	},
	{
		Name:          "churn-durable",
		Why:           "churn-sparse with -data-dir and -fsync always: the only workload where the WAL append and fsync sit on the commit path; its gap to churn-sparse is their cost (knee at write p99 <= 50 ms)",
		Population:    1024,
		FixedRate:     50,
		ReadsPerWrite: 4,
		LimitMs:       50,
		SearchFrom:    1400,
		Durable:       true,
		SimSeconds:    0.5,
		SimSets:       1,
		newWorld:      sparseWorld,
	},
}

// gated returns the workloads BENCHMARK.json lists, in table order.
func gated() []*workload {
	var out []*workload
	for _, w := range workloads {
		if w.Ungated == "" {
			out = append(out, w)
		}
	}
	return out
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// flowSpec is one flow the generator registers. Slot is the position
// in the rotation that the replacing flow inherits.
type flowSpec struct {
	ID     string
	Weight float64
	Path   []topology.NodeID
	Slot   int
}

// world is the topology a workload runs on and how it draws flows.
type world struct {
	topo    *topology.Topology
	shardOf []int // node → radio component, the daemon's shard partition
	// initial returns preload flow i (without ID).
	initial func(rng *rand.Rand, i int) flowSpec
	// replace returns the fresh flow (without ID) that takes over old's
	// slot when old is rotated out.
	replace func(rng *rand.Rand, old flowSpec) flowSpec
}

// newWorld fills in the shard partition the daemon will compute.
func newWorld(w *world) (*world, error) {
	var cs topology.RadioComponentSet
	w.topo.AppendRadioComponents(&cs)
	w.shardOf = make([]int, w.topo.NumNodes())
	for c := 0; c < cs.Len(); c++ {
		for _, n := range cs.Component(c) {
			w.shardOf[n] = c
		}
	}
	return w, nil
}

// spec is the daemon's -spec document: the node layout only.
func (w *world) spec() e2efair.NetworkSpec {
	spec := e2efair.NetworkSpec{TxRange: w.topo.TxRange(), InterferenceRange: w.topo.InterferenceRange()}
	for i := 0; i < w.topo.NumNodes(); i++ {
		p := w.topo.Position(topology.NodeID(i))
		spec.Nodes = append(spec.Nodes, e2efair.NodeSpec{Name: w.topo.Name(topology.NodeID(i)), X: p.X, Y: p.Y})
	}
	return spec
}

func (w *world) names(path []topology.NodeID) []string {
	out := make([]string, len(path))
	for i, n := range path {
		out[i] = w.topo.Name(n)
	}
	return out
}

// freshWeight draws a weight from a continuum, so no group LP of a
// rotating workload ever repeats and the share cache cannot hide it.
func freshWeight(rng *rand.Rand) float64 { return 1 + rng.Float64() }

// sparseTiles is the tile count of churn-sparse; its 1024 flows
// hold four per tile.
const sparseTiles = 256

// sparseWorld lays sparseTiles copies of an 11-node tile (a 5-node
// chain with two short rows beside it) 2 km apart, far beyond radio
// range, so each tile is its own daemon shard and contention group.
// A fresh flow takes a random 1–4 hop shortest path inside its tile.
func sparseWorld() (*world, error) {
	tile := [][2]float64{
		{0, 0}, {200, 0}, {400, 0}, {600, 0}, {800, 0},
		{300, 150}, {500, 150},
		{100, -150}, {300, -150}, {500, -150}, {700, -150},
	}
	b := topology.NewBuilder(topology.DefaultRange, 0)
	for t := 0; t < sparseTiles; t++ {
		x0, y0 := float64(t%16)*2000, float64(t/16)*2000
		for i, p := range tile {
			b.Add(fmt.Sprintf("t%d.%d", t, i), x0+p[0], y0+p[1])
		}
	}
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	// Every 1–4 hop shortest path of tile 0; tile t shifts node IDs.
	var paths [][]topology.NodeID
	for s := range tile {
		for d := range tile {
			if s == d {
				continue
			}
			p, err := routing.ShortestPath(topo, topology.NodeID(s), topology.NodeID(d))
			if err == nil && len(p) >= 2 && len(p) <= 5 {
				paths = append(paths, p)
			}
		}
	}
	draw := func(rng *rand.Rand, slot int) flowSpec {
		base := paths[rng.Intn(len(paths))]
		// Slot s lives in tile s mod sparseTiles, so consecutive
		// rotation steps land in different shards.
		off := topology.NodeID((slot % sparseTiles) * len(tile))
		path := make([]topology.NodeID, len(base))
		for i, n := range base {
			path[i] = n + off
		}
		return flowSpec{Weight: freshWeight(rng), Path: path, Slot: slot}
	}
	return newWorld(&world{
		topo:    topo,
		initial: draw,
		replace: func(rng *rand.Rand, old flowSpec) flowSpec { return draw(rng, old.Slot) },
	})
}

// denseTopoSeed fixes the dense topology; the benchmark seed varies
// the flows and arrivals on it, not the node layout.
const denseTopoSeed = 20050601

// denseWorld is a random 400-node topology on ~3 km² (1732 m square)
// with flows along shortest paths of at most 6 hops between random
// endpoints; at 20 flows they form one contention group.
func denseWorld() (*world, error) {
	topo, err := topology.Random(topology.RandomConfig{Nodes: 400, Width: 1732, Height: 1732, Connect: true},
		rand.New(rand.NewSource(denseTopoSeed)))
	if err != nil {
		return nil, err
	}
	n := topo.NumNodes()
	draw := func(rng *rand.Rand, slot int) flowSpec {
		for {
			src, dst := topology.NodeID(rng.Intn(n)), topology.NodeID(rng.Intn(n))
			if src == dst {
				continue
			}
			p, err := routing.ShortestPath(topo, src, dst)
			if err != nil || len(p)-1 > 6 || routing.ValidatePath(topo, p) != nil {
				continue
			}
			return flowSpec{Weight: freshWeight(rng), Path: p, Slot: slot}
		}
	}
	return newWorld(&world{
		topo:    topo,
		initial: draw,
		replace: func(rng *rand.Rand, old flowSpec) flowSpec { return draw(rng, old.Slot) },
	})
}

// opKind is what one scheduled request does.
type opKind uint8

const (
	opRegister opKind = iota
	opRemove
	opRead
)

func (k opKind) String() string {
	return [...]string{"register", "remove", "read"}[k]
}

// op is one scheduled request. At is its due time from the phase
// start; Flow is set for registers, ID for every kind.
type op struct {
	At    time.Duration
	Kind  opKind
	ID    string
	Flow  flowSpec
	Shard int // registers: the daemon shard (radio component) of the flow
}

func (o *op) isWrite() bool { return o.Kind != opRead }

// rotation is the generator's model of the daemon's live set: flows
// in registration order. Write events alternate: a register of a fresh
// flow in the oldest flow's slot, then the remove of that oldest flow.
// The population so stays within one of its size, and the flow set
// never returns to an earlier one.
type rotation struct {
	w    *world
	rng  *rand.Rand // flow content: paths and weights
	live []flowSpec
	owes bool // a register was sent whose paired remove is next
	next int  // fresh ID counter
}

func newRotation(w *world, seed int64) *rotation {
	return &rotation{w: w, rng: rand.New(rand.NewSource(seed))}
}

func (r *rotation) fresh(f flowSpec) flowSpec {
	r.next++
	f.ID = fmt.Sprintf("f%d", r.next)
	return f
}

// preload returns the base population's registers.
func (r *rotation) preload(n int) []op {
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		f := r.fresh(r.w.initial(r.rng, i))
		r.live = append(r.live, f)
		ops = append(ops, r.register(0, f))
	}
	return ops
}

// write returns the next write event, due at `at`.
func (r *rotation) write(at time.Duration) op {
	old := r.live[0]
	if r.owes {
		r.owes = false
		r.live = r.live[1:]
		return op{At: at, Kind: opRemove, ID: old.ID}
	}
	r.owes = true
	f := r.fresh(r.w.replace(r.rng, old))
	r.live = append(r.live, f)
	return r.register(at, f)
}

func (r *rotation) register(at time.Duration, f flowSpec) op {
	return op{At: at, Kind: opRegister, ID: f.ID, Flow: f, Shard: r.w.shardOf[f.Path[0]]}
}

// readTarget picks a live flow from the middle half of the rotation,
// away from the newest and oldest flows, whose register or remove may
// still be in flight; a read that does reach one waits for it (see
// dependencies), which on a small population would make reads measure
// writes.
func (r *rotation) readTarget(rng *rand.Rand) string {
	g := len(r.live) / 4
	return r.live[g+rng.Intn(len(r.live)-2*g)].ID
}

// schedule draws an open-loop phase of `dur` at `rate` write events
// per second plus readsPerWrite reads per write: Poisson arrivals,
// each a write or a read in proportion to the offered rates.
func (r *rotation) schedule(arrivals *rand.Rand, rate, readsPerWrite float64, dur time.Duration) []op {
	readRate := rate * readsPerWrite
	total := rate + readRate
	var ops []op
	t := 0.0
	for {
		t += arrivals.ExpFloat64() / total
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return ops
		}
		if arrivals.Float64()*total < rate {
			ops = append(ops, r.write(at))
		} else {
			ops = append(ops, op{At: at, Kind: opRead, ID: r.readTarget(arrivals)})
		}
	}
}

// mark is a rotation state to rewind to.
type mark struct {
	live []flowSpec
	owes bool
}

func (r *rotation) mark() mark { return mark{live: slices.Clone(r.live), owes: r.owes} }

// rewind sets the rotation to m with only the sent prefix of the
// schedule drawn since applied: a cut phase never sent the rest.
func (r *rotation) rewind(m mark, sent []op) {
	r.live, r.owes = m.live, m.owes
	for _, o := range sent {
		switch o.Kind {
		case opRegister:
			r.live = append(r.live, o.Flow)
			r.owes = true
		case opRemove:
			r.live = slices.DeleteFunc(r.live, func(f flowSpec) bool { return f.ID == o.ID })
			r.owes = false
		}
	}
}
