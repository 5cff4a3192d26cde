// Command benchtables regenerates every table and figure of the
// paper's analysis and evaluation sections: the worked allocation
// examples of Figs. 1, 2, 4, 5 and 6, the per-node local optimizations
// of Table I, and the packet-level simulations of Tables II and III.
// Paper-reported values are printed alongside for comparison; see
// EXPERIMENTS.md for the expected correspondences.
//
// Independent simulations (the protocol rows of Tables II/III and the
// random-network sweep) fan out across a netsim.RunParallel worker
// pool; results and printed tables are bit-identical to sequential
// runs.
//
// Usage:
//
//	benchtables                  # everything, 200 simulated seconds
//	benchtables -duration 1000   # full paper-length simulations
//	benchtables -only tableII
//	benchtables -json BENCH_tables.json   # machine-readable metrics + timings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"e2efair/internal/contention"
	"e2efair/internal/core"
	"e2efair/internal/fault"
	"e2efair/internal/flow"
	"e2efair/internal/geom"
	"e2efair/internal/lp"
	"e2efair/internal/mobility"
	"e2efair/internal/netsim"
	"e2efair/internal/routing"
	"e2efair/internal/scenario"
	"e2efair/internal/sim"
	"e2efair/internal/stats"
	"e2efair/internal/tdma"
	"e2efair/internal/topology"
	"e2efair/internal/transport"
)

// Report is the machine-readable run summary written by -json: per
// section, the paper metrics of every table row plus wall-clock
// timings, so successive PRs can track the perf trajectory in
// BENCH_*.json files. Every report is stamped with the environment the
// numbers were taken on — GOMAXPROCS, CPU count, and the git commit —
// so cross-PR comparisons never mix machines or revisions silently.
type Report struct {
	DurationSec   float64    `json:"durationSec"`
	Seed          int64      `json:"seed"`
	GoMaxProcs    int        `json:"gomaxprocs"`
	NumCPU        int        `json:"numCPU"`
	GitSHA        string     `json:"gitSHA,omitempty"`
	TotalWallSecs float64    `json:"totalWallSeconds"`
	Sections      []*Section `json:"sections"`
}

// gitSHA stamps reports with the commit the numbers were taken at,
// suffixed -dirty when the working tree has uncommitted changes other
// than BENCH_*.json reports; empty (and omitted from the JSON) outside
// a git checkout.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	// The BENCH_*.json reports are this command's own output; writing
	// one must not mark the next report dirty.
	st, err := exec.Command("git", "status", "--porcelain", "--", ":/", ":(top,exclude)BENCH_*.json").Output()
	if err == nil && len(st) > 0 {
		sha += "-dirty"
	}
	return sha
}

// Section is one table or figure of the report.
type Section struct {
	Name     string  `json:"name"`
	WallSecs float64 `json:"wallSeconds"`
	Entries  []Entry `json:"entries,omitempty"`
}

// Entry is one labelled row of a section (a protocol, a sweep size).
type Entry struct {
	Label  string             `json:"label"`
	Values map[string]float64 `json:"values"`
}

func (s *Section) add(label string, values map[string]float64) {
	s.Entries = append(s.Entries, Entry{Label: label, Values: values})
}

func main() {
	duration := flag.Float64("duration", 200, "simulated seconds for Tables II/III (paper: 1000)")
	seed := flag.Int64("seed", 1, "simulation seed")
	only := flag.String("only", "", "run one section: fig1, fig2, fig4, fig5, fig6, tableI, tableII, tableIII, ideal, transport, random, mobility, lp, alloc, mac, topo, resilience, sim, twin, serve")
	jsonPath := flag.String("json", "", "write machine-readable metrics and wall-clock timings to this file")
	flag.Parse()
	if err := run(*duration, *seed, *only, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

func run(durationSec float64, seed int64, only, jsonPath string) error {
	sections := []struct {
		name string
		fn   func(float64, int64, *Section) error
	}{
		{"fig1", fig1}, {"fig2", fig2}, {"fig4", fig4}, {"fig5", fig5},
		{"fig6", fig6}, {"tableI", tableI}, {"tableII", tableII}, {"tableIII", tableIII},
		{"ideal", ideal}, {"transport", reliableTransport}, {"random", randomSweep},
		{"mobility", mobilitySection}, {"lp", lpSection}, {"alloc", allocSection},
		{"mac", macSection}, {"topo", topoSection}, {"resilience", resilienceSection},
		{"sim", simSection}, {"twin", twinSection}, {"serve", serveSection},
	}
	report := &Report{
		DurationSec: durationSec, Seed: seed,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GitSHA: gitSHA(),
	}
	start := time.Now()
	ran := false
	for _, s := range sections {
		if only != "" && only != s.name {
			continue
		}
		ran = true
		sec := &Section{Name: s.name}
		secStart := time.Now()
		if err := s.fn(durationSec, seed, sec); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		sec.WallSecs = time.Since(secStart).Seconds()
		report.Sections = append(report.Sections, sec)
		fmt.Println()
	}
	if !ran {
		return fmt.Errorf("unknown section %q", only)
	}
	report.TotalWallSecs = time.Since(start).Seconds()
	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d sections, %.2fs wall)\n", jsonPath, len(report.Sections), report.TotalWallSecs)
	}
	return nil
}

func flows(alloc core.FlowAllocation) string {
	ids := make([]string, 0, len(alloc))
	for id := range alloc {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	out := ""
	for _, id := range ids {
		out += fmt.Sprintf(" %s=%.4f", id, alloc[flow.ID(id)])
	}
	return out
}

func recordAlloc(sec *Section, label string, alloc core.FlowAllocation) {
	values := map[string]float64{"totalB": alloc.TotalEffectiveThroughput()}
	for id, r := range alloc {
		values[string(id)] = r
	}
	sec.add(label, values)
}

func fig1(_ float64, _ int64, sec *Section) error {
	fmt.Println("== Fig. 1 worked example (Secs. I, III-B) ==")
	sc, err := scenario.Figure1()
	if err != nil {
		return err
	}
	fair := core.FairnessConstrained(sc.Inst)
	fmt.Printf("fairness constraint:  %s   (paper: F1=1/3 F2=1/3, total 2B/3)\n", flows(fair))
	recordAlloc(sec, "fairness", fair)
	opt, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("basic-fairness LP:    %s   (paper: F1=1/2 F2=1/4, total 3B/4)\n", flows(opt))
	recordAlloc(sec, "2pa-c", opt)
	tt := core.TwoTierAllocate(sc.Inst)
	fmt.Printf("two-tier subflows:    F1.1=%.4f F1.2=%.4f F2.1=%.4f F2.2=%.4f (paper: 3/4, 1/4, 3/8, 3/8)\n",
		tt[sf("F1", 0)], tt[sf("F1", 1)], tt[sf("F2", 0)], tt[sf("F2", 1)])
	e2e := tt.EndToEnd(sc.Flows)
	fmt.Printf("two-tier end-to-end:  %s   total %.4f (paper: 5B/8)\n", flows(e2e), e2e.TotalEffectiveThroughput())
	recordAlloc(sec, "two-tier", e2e)
	return nil
}

func fig2(_ float64, _ int64, sec *Section) error {
	fmt.Println("== Fig. 2 fairness definitions (Sec. II-C) ==")
	single, err := scenario.Figure2Single()
	if err != nil {
		return err
	}
	fair := core.FairnessConstrained(single.Inst)
	fmt.Printf("(a) single-hop, weights (2,1): %s   (paper: 2B/3, B/3)\n", flows(fair))
	recordAlloc(sec, "single-hop", fair)
	multi, err := scenario.Figure2Multi()
	if err != nil {
		return err
	}
	naive := core.SingleHopShares(multi.Inst)
	fmt.Printf("(b) naive per-length split:    %s   (paper: end-to-end B/9 for the 3-hop flow)\n", flows(naive))
	recordAlloc(sec, "naive", naive)
	opt, err := core.CentralizedAllocate(multi.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("(c) end-to-end fair:           %s   (paper: 2B/5, B/5)\n", flows(opt))
	recordAlloc(sec, "e2e-fair", opt)
	return nil
}

func fig4(_ float64, _ int64, sec *Section) error {
	fmt.Println("== Fig. 4 weighted contention graph (Secs. III, IV-C) ==")
	sc, err := scenario.Figure4()
	if err != nil {
		return err
	}
	basic := core.BasicShares(sc.Inst)
	fmt.Printf("basic shares: %s   (paper: B/10, B/5, 3B/10, B/5)\n", flows(basic))
	recordAlloc(sec, "basic", basic)
	opt, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("LP optimum:   %s   (paper: 3B/10, B/5, 3B/10, 7B/10; total 3B/2)\n", flows(opt))
	recordAlloc(sec, "lp", opt)
	return nil
}

func fig5(_ float64, _ int64, sec *Section) error {
	fmt.Println("== Fig. 5 pentagon (Sec. III-A) ==")
	sc, err := scenario.Pentagon()
	if err != nil {
		return err
	}
	omega, _ := sc.Inst.Graph.WeightedCliqueNumber()
	fmt.Printf("ω_Ω = %.0f, Prop. 1 upper bound = %.2f·B total (paper: 5B/2)\n", omega, core.UpperBoundTotal(sc.Inst))
	rates := make([]float64, sc.Inst.Graph.NumVertices())
	for i := range rates {
		rates[i] = 0.5
	}
	s, err := core.CheckSchedulable(sc.Inst.Graph, rates)
	if err != nil {
		return err
	}
	fmt.Printf("B/2 per flow schedulable: %v (load %.3f; paper: impossible to achieve)\n", s.Feasible, s.Load)
	tMax, err := core.MaxSchedulableFairRate(sc.Inst.Graph)
	if err != nil {
		return err
	}
	fmt.Printf("max schedulable symmetric rate: %.4f·B\n", tMax)
	sec.add("pentagon", map[string]float64{"omega": omega, "maxFairRateB": tMax})
	return nil
}

func fig6(_ float64, _ int64, sec *Section) error {
	fmt.Println("== Fig. 6 centralized first phase (Sec. IV-B) ==")
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	opt, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
	if err != nil {
		return err
	}
	fmt.Printf("2PA-C: %s   (paper: 1/3, 1/3, 2/3, 1/8, 3/4)\n", flows(opt))
	recordAlloc(sec, "2pa-c", opt)
	return nil
}

func tableI(_ float64, _ int64, sec *Section) error {
	fmt.Println("== Table I: distributed local optimization ==")
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	res, err := core.DistributedAllocate(sc.Inst)
	if err != nil {
		return err
	}
	for _, lp := range res.Locals {
		fmt.Printf("node %-2s vars=%v basic=%.4f cliques=%d solution=[",
			sc.Topo.Name(lp.Node), lp.FlowIDs, lp.Basic[0], len(lp.Cliques))
		for i, v := range lp.Solution {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%.4f", v)
		}
		fmt.Println("]")
	}
	fmt.Printf("adopted 2PA-D shares: %s\n", flows(res.Shares))
	fmt.Println("(paper: 1/3, 1/5, 1/4, 1/4, 1/2 — see EXPERIMENTS.md on r̂5)")
	recordAlloc(sec, "2pa-d", res.Shares)
	return nil
}

func sf(id flow.ID, hop int) flow.SubflowID { return flow.SubflowID{Flow: id, Hop: hop} }

// ideal runs the Sec. III estimation algorithm: the 2PA allocation
// executed by a perfectly coordinated TDMA schedule, the upper bound
// the contention MAC is judged against.
func ideal(durationSec float64, seed int64, sec *Section) error {
	fmt.Println("== Ideal estimator (Sec. III): 2PA shares under coordination-free TDMA ==")
	for _, build := range []func() (*scenario.Scenario, error){scenario.Figure1, scenario.Figure6} {
		sc, err := build()
		if err != nil {
			return err
		}
		res, err := tdma.RunIdeal2PA(sc.Inst, tdma.Config{Duration: sim.Time(durationSec * float64(sim.Second))})
		if err != nil {
			return err
		}
		mac, err := netsim.Run(sc.Inst, netsim.Config{
			Protocol: netsim.Protocol2PAC,
			Duration: sim.Time(durationSec * float64(sim.Second)),
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		eff := float64(mac.Stats.TotalEndToEnd()) / float64(res.Stats.TotalEndToEnd())
		fmt.Printf("%-8s ideal total=%8d pkt  2PA-C total=%8d pkt  MAC efficiency=%.2f  util=%.2f coll=%.3f\n",
			sc.Name, res.Stats.TotalEndToEnd(), mac.Stats.TotalEndToEnd(),
			eff, mac.Airtime.Utilization(), mac.Airtime.CollisionOverhead())
		sec.add(sc.Name, map[string]float64{
			"idealTotalPkt": float64(res.Stats.TotalEndToEnd()),
			"macTotalPkt":   float64(mac.Stats.TotalEndToEnd()),
			"macEfficiency": eff,
			"utilization":   mac.Airtime.Utilization(),
		})
	}
	return nil
}

// randomSweep evaluates the allocation strategies across random
// connected topologies of growing size, reporting the mean total
// effective throughput and the optimality gap of the distributed form,
// then packet-simulates the largest topology across protocols × seeds
// on the parallel worker pool.
func randomSweep(durationSec float64, seed int64, sec *Section) error {
	fmt.Println("== Random-topology sweep: mean total effective throughput (fraction of B) ==")
	fmt.Printf("%8s%8s%10s%10s%10s%10s%10s%12s\n",
		"nodes", "flows", "basic", "fairness", "2pa-c", "2pa-d", "two-tier", "distGap")
	rng := rand.New(rand.NewSource(seed))
	var last *scenario.Scenario
	for _, size := range []struct{ nodes, flows int }{{12, 3}, {20, 4}, {30, 6}} {
		const trials = 10
		var sums [5]float64
		var gap float64
		done := 0
		for trial := 0; trial < trials; trial++ {
			sc, err := scenario.Random(scenario.RandomConfig{
				Nodes: size.nodes, Width: 900, Height: 900,
				Flows: size.flows, MaxHops: 6,
			}, rng)
			if err != nil {
				continue
			}
			cent, err := core.CentralizedAllocate(sc.Inst, core.CentralizedOptions{Refine: true})
			if err != nil {
				continue
			}
			dist, err := core.DistributedAllocate(sc.Inst)
			if err != nil {
				continue
			}
			last = sc
			sums[0] += totalOf(core.BasicShares(sc.Inst))
			sums[1] += totalOf(core.FairnessConstrained(sc.Inst))
			sums[2] += cent.TotalEffectiveThroughput()
			sums[3] += dist.Shares.TotalEffectiveThroughput()
			sums[4] += totalOf(core.TwoTierAllocate(sc.Inst).EndToEnd(sc.Flows))
			gap += dist.Shares.TotalEffectiveThroughput() / cent.TotalEffectiveThroughput()
			done++
		}
		if done == 0 {
			continue
		}
		d := float64(done)
		fmt.Printf("%8d%8d%10.3f%10.3f%10.3f%10.3f%10.3f%12.3f\n",
			size.nodes, size.flows, sums[0]/d, sums[1]/d, sums[2]/d, sums[3]/d, sums[4]/d, gap/d)
		sec.add(fmt.Sprintf("alloc-n%d", size.nodes), map[string]float64{
			"basic": sums[0] / d, "fairness": sums[1] / d, "2pa-c": sums[2] / d,
			"2pa-d": sums[3] / d, "two-tier": sums[4] / d, "distGap": gap / d,
		})
	}
	fmt.Println("(2pa-c dominates two-tier end-to-end and never falls below basic; distGap = 2pa-d / 2pa-c)")
	if last == nil {
		return nil
	}
	// Packet-level sweep over the last random topology: protocols ×
	// seeds fanned across the worker pool, a fraction of the table
	// duration per run.
	simDur := sim.Time(durationSec / 10 * float64(sim.Second))
	if simDur < sim.Second {
		simDur = sim.Second
	}
	protocols := []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC}
	seeds := []int64{seed, seed + 1, seed + 2, seed + 3}
	jobs := netsim.SweepJobs([]*core.Instance{last.Inst}, netsim.Config{Duration: simDur}, protocols, seeds)
	results, err := netsim.RunParallel(jobs)
	if err != nil {
		return err
	}
	fmt.Printf("packet-level sweep on last topology (%d runs of %gs, parallel):\n", len(jobs), simDur.Seconds())
	for pi, p := range protocols {
		var pkt, loss float64
		for si := range seeds {
			r := results[pi*len(seeds)+si]
			pkt += float64(r.Stats.TotalEndToEnd()) / simDur.Seconds()
			loss += r.Stats.LossRatio()
		}
		n := float64(len(seeds))
		fmt.Printf("  %-9s mean %8.1f pkt/s  loss %.4f over %d seeds\n", p, pkt/n, loss/n, len(seeds))
		sec.add("sim-"+p.String(), map[string]float64{"pktPerS": pkt / n, "lossRatio": loss / n})
	}
	return nil
}

func totalOf(a core.FlowAllocation) float64 { return a.TotalEffectiveThroughput() }

// mobilitySection runs the epochal mobility extension at two speeds.
func mobilitySection(durationSec float64, seed int64, sec *Section) error {
	fmt.Println("== Mobility extension: epochal rerouting and reallocation (25 nodes, 3 flows) ==")
	for _, speed := range []float64{2, 20} {
		res, err := mobility.Run(mobility.Config{
			Nodes: 25,
			Waypoint: mobility.WaypointConfig{
				Width: 1200, Height: 900, MinSpeed: 1, MaxSpeed: speed,
				MaxPause: 2 * sim.Second,
			},
			Flows: []mobility.FlowSpec{
				{ID: "F1", Src: 0, Dst: 20}, {ID: "F2", Src: 3, Dst: 17}, {ID: "F3", Src: 7, Dst: 22},
			},
			Protocol: netsim.Protocol2PAC,
			Epoch:    10 * sim.Second,
			Duration: sim.Time(durationSec * float64(sim.Second)),
			Seed:     seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("maxSpeed=%4.0f m/s: delivered=%d lost=%d routeBreaks=%d unreachable-epochs=%d\n",
			speed, res.TotalDelivered, res.TotalLost, res.RouteBreaks, res.Unreachable)
		sec.add(fmt.Sprintf("speed%.0f", speed), map[string]float64{
			"delivered": float64(res.TotalDelivered), "lost": float64(res.TotalLost),
			"routeBreaks": float64(res.RouteBreaks),
		})
	}
	return nil
}

// reliableTransport measures end-to-end goodput and retransmission
// waste under a sliding-window reliable transport: the paper's wasted
// bandwidth argument.
func reliableTransport(durationSec float64, seed int64, sec *Section) error {
	fmt.Println("== Reliable transport: goodput and retransmission waste (Fig. 1) ==")
	sc, err := scenario.Figure1()
	if err != nil {
		return err
	}
	fmt.Printf("%-9s%10s%10s%12s%10s"+"\n", "protocol", "goodput", "retx", "overhead", "abandoned")
	for _, p := range []netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC} {
		res, err := transport.Run(sc.Inst, transport.Config{
			Net: netsim.Config{Protocol: p, Duration: sim.Time(durationSec * float64(sim.Second)), Seed: seed},
		})
		if err != nil {
			return err
		}
		var retx, abandoned int64
		for _, fr := range res.PerFlow {
			retx += fr.Retransmissions
			abandoned += fr.Abandoned
		}
		fmt.Printf("%-9s%10d%10d%12.4f%10d"+"\n", p, res.TotalGoodput(), retx, res.RetransmissionOverhead(), abandoned)
		sec.add(p.String(), map[string]float64{
			"goodputPkt":   float64(res.TotalGoodput()),
			"retx":         float64(retx),
			"retxOverhead": res.RetransmissionOverhead(),
		})
	}
	return nil
}

// simTable runs one protocol table with every row fanned across the
// worker pool, then prints rows in protocol order.
func simTable(title string, sc *scenario.Scenario, protocols []netsim.Protocol, durationSec float64, seed int64, paperNote string, sec *Section) error {
	fmt.Printf("== %s (%g simulated seconds, seed %d) ==\n", title, durationSec, seed)
	var subs []flow.SubflowID
	for _, f := range sc.Flows.Flows() {
		for _, s := range f.Subflows() {
			subs = append(subs, s.ID)
		}
	}
	fmt.Printf("%-9s", "protocol")
	for _, s := range subs {
		fmt.Printf("%9s", s.String())
	}
	fmt.Printf("%10s%8s%8s%7s\n", "totalE2E", "lost", "ratio", "jain")
	results, err := netsim.RunAllParallel(sc.Inst, netsim.Config{
		Duration: sim.Time(durationSec * float64(sim.Second)),
		Seed:     seed,
	}, protocols...)
	if err != nil {
		return err
	}
	for i, p := range protocols {
		r := results[i]
		fmt.Printf("%-9s", p)
		for _, s := range subs {
			fmt.Printf("%9d", r.Stats.Subflow(s))
		}
		var norm []float64
		for _, f := range sc.Flows.Flows() {
			norm = append(norm, float64(r.Stats.EndToEnd(f.ID()))/f.Weight())
		}
		jain := stats.JainIndex(norm)
		fmt.Printf("%10d%8d%8.4f%7.3f\n",
			r.Stats.TotalEndToEnd(), r.Stats.Lost(), r.Stats.LossRatio(), jain)
		sec.add(p.String(), map[string]float64{
			"totalE2EPkt": float64(r.Stats.TotalEndToEnd()),
			"pktPerS":     float64(r.Stats.TotalEndToEnd()) / durationSec,
			"lost":        float64(r.Stats.Lost()),
			"lossRatio":   r.Stats.LossRatio(),
			"jain":        jain,
		})
	}
	fmt.Println(paperNote)
	return nil
}

func tableII(durationSec float64, seed int64, sec *Section) error {
	sc, err := scenario.Figure1()
	if err != nil {
		return err
	}
	return simTable("Table II: scenario 1 (Fig. 1)", sc,
		[]netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.ProtocolDFS},
		durationSec, seed,
		"paper @1000s: totals 152485 / 126499 / 167488; loss ratios 0.132 / 0.045 / 0.004\n"+
			"expected shape: 2PA highest total, near-zero loss, subflows ≈ ½:½:¼:¼", sec)
}

func tableIII(durationSec float64, seed int64, sec *Section) error {
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	return simTable("Table III: scenario 2 (Fig. 6)", sc,
		[]netsim.Protocol{netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC, netsim.Protocol2PAD},
		durationSec, seed,
		"paper @1000s: totals 443204 / 394125 / 422162 / 352341; loss ratios 0.100 / 0.027 / 0.006 / 0.004\n"+
			"expected shape: loss 2PA-D ≤ 2PA-C ≪ two-tier ≪ 802.11; 2PA-C > two-tier on total;\n"+
			"2PA-C flow throughputs ∝ (1/3, 1/3, 2/3, 1/8, 3/4)", sec)
}

// nsPerOp times f with iteration-count calibration (≥100ms of
// samples), mirroring the testing package's methodology. Functions
// slower than ~2ms are timed by their first 64-iteration batch. The
// calibrated batch is re-run and the best of three kept, so one noisy
// scheduler quantum can't skew a reported comparison.
func nsPerOp(f func() error) (float64, error) {
	for iters := 64; ; iters *= 4 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return 0, err
			}
		}
		el := time.Since(start)
		if el < 100*time.Millisecond && iters < 1<<22 {
			continue
		}
		best := el
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return float64(best.Nanoseconds()) / float64(iters), nil
	}
}

// lpSection measures the LP-solver fast path added by the flat-tableau
// reusable Solver: cold solves against the retained reference, the
// warm-started steady-state re-solve loop (which must not allocate),
// and the distributed first phase on sequential vs machine-sized
// worker pools. Emitted to BENCH_lp.json by `make bench-lp`.
func lpSection(_ float64, _ int64, sec *Section) error {
	fmt.Println("== LP solver fast path ==")
	// The Fig. 6 centralized LP: 5 flows, 5 clique rows, 5 floors.
	buildFig6 := func() (*lp.Problem, error) {
		p := lp.NewProblem(5)
		if err := p.SetObjective([]float64{1, 1, 1, 1, 1}); err != nil {
			return nil, err
		}
		rows := [][]float64{
			{3, 0, 0, 0, 0}, {2, 1, 0, 0, 0}, {0, 1, 1, 0, 0}, {0, 0, 1, 1, 0}, {0, 0, 0, 2, 1},
		}
		for _, r := range rows {
			if err := p.AddLE(r, 1); err != nil {
				return nil, err
			}
		}
		for i := 0; i < 5; i++ {
			if err := p.LowerBound(i, 0.125); err != nil {
				return nil, err
			}
		}
		return p, nil
	}

	p, err := buildFig6()
	if err != nil {
		return err
	}

	s := lp.NewSolver()
	var sol lp.Solution
	coldNs, err := nsPerOp(func() error { return s.SolveInto(p, &sol) })
	if err != nil {
		return err
	}
	var allocErr error
	coldAllocs := testing.AllocsPerRun(200, func() {
		if err := s.SolveInto(p, &sol); err != nil {
			allocErr = err
		}
	})
	if allocErr != nil {
		return allocErr
	}
	sec.add("solveCold", map[string]float64{"nsPerOp": coldNs, "allocsPerOp": coldAllocs})
	fmt.Printf("cold solve (reusable Solver):    %10.0f ns/op  %6.1f allocs/op\n", coldNs, coldAllocs)

	refNs, err := nsPerOp(func() error { _, err := lp.Solve(p); return err })
	if err != nil {
		return err
	}
	refAllocs := testing.AllocsPerRun(200, func() {
		if _, err := lp.Solve(p); err != nil {
			allocErr = err
		}
	})
	if allocErr != nil {
		return allocErr
	}
	sec.add("solveReference", map[string]float64{"nsPerOp": refNs, "allocsPerOp": refAllocs})
	fmt.Printf("cold solve (seed reference):     %10.0f ns/op  %6.1f allocs/op\n", refNs, refAllocs)

	if err := s.SolveInto(p, &sol); err != nil {
		return err
	}
	basis := s.Basis()
	tick := 0
	warm := func() error {
		tick++
		rhs := 1.0
		if tick%2 == 0 {
			rhs = 0.95
		}
		if err := p.SetRHS(1, rhs); err != nil {
			return err
		}
		if err := s.SolveFromInto(p, basis, &sol); err != nil {
			return err
		}
		basis = s.AppendBasis(basis[:0])
		return nil
	}
	warmNs, err := nsPerOp(warm)
	if err != nil {
		return err
	}
	warmAllocs := testing.AllocsPerRun(200, func() {
		if err := warm(); err != nil {
			allocErr = err
		}
	})
	if allocErr != nil {
		return allocErr
	}
	sec.add("warmResolve", map[string]float64{"nsPerOp": warmNs, "allocsPerOp": warmAllocs})
	fmt.Printf("warm-started re-solve:           %10.0f ns/op  %6.1f allocs/op\n", warmNs, warmAllocs)

	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	seqAlloc := core.NewAllocatorWorkers(1)
	seqNs, err := nsPerOp(func() error { _, err := seqAlloc.Distributed(sc.Inst); return err })
	if err != nil {
		return err
	}
	sec.add("distributedSequential", map[string]float64{"nsPerOp": seqNs})
	fmt.Printf("DistributedAllocate sequential:  %10.0f ns/op\n", seqNs)

	parAlloc := core.NewAllocator()
	parNs, err := nsPerOp(func() error { _, err := parAlloc.Distributed(sc.Inst); return err })
	if err != nil {
		return err
	}
	sec.add("distributedParallel", map[string]float64{"nsPerOp": parNs})
	fmt.Printf("DistributedAllocate parallel:    %10.0f ns/op  (%d workers)\n", parNs, runtime.GOMAXPROCS(0))
	return nil
}

// allocClusteredWorkload builds the sharded engine's benchmark shape:
// `clusters` spatially separated contention components (2 km apart,
// far beyond the 250 m range), each carrying four coupled flows with
// rng-drawn weights. Shared by the alloc and serve sections.
func allocClusteredWorkload(clusters int, seed int64) (*topology.Topology, []*flow.Flow, error) {
	rng := rand.New(rand.NewSource(seed))
	b := topology.NewBuilder(topology.DefaultRange, 0)
	type pathSpec struct {
		id     string
		weight float64
		path   []string
	}
	var specs []pathSpec
	for c := 0; c < clusters; c++ {
		n := func(s string) string { return fmt.Sprintf("c%d%s", c, s) }
		x0 := float64(c) * 2000
		chain := []string{n("n0"), n("n1"), n("n2"), n("n3"), n("n4")}
		for i, name := range chain {
			b.Add(name, x0+float64(i)*200, 0)
		}
		b.Add(n("ta"), x0+300, 150)
		b.Add(n("tb"), x0+500, 150)
		b.Add(n("ba"), x0+100, -150)
		b.Add(n("bb"), x0+300, -150)
		b.Add(n("bc"), x0+500, -150)
		b.Add(n("bd"), x0+700, -150)
		w := func() float64 { return float64(1 + rng.Intn(3)) }
		specs = append(specs,
			pathSpec{n("F-chain"), w(), chain},
			pathSpec{n("F-top"), w(), []string{n("ta"), n("tb")}},
			pathSpec{n("F-bot1"), w(), []string{n("ba"), n("bb")}},
			pathSpec{n("F-bot2"), w(), []string{n("bc"), n("bd")}},
		)
	}
	topo, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	all := make([]*flow.Flow, 0, len(specs))
	for _, sp := range specs {
		path := make([]topology.NodeID, len(sp.path))
		for i, name := range sp.path {
			id, err := topo.Lookup(name)
			if err != nil {
				return nil, nil, err
			}
			path[i] = id
		}
		f, err := flow.New(flow.ID(sp.id), sp.weight, path)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, f)
	}
	return topo, all, nil
}

// allocClusteredInstances derives the alloc section's instance pair
// from the clustered workload: the full flow set, plus the post-churn
// variant missing cluster 0's cross flow.
func allocClusteredInstances(clusters int, seed int64) (*core.Instance, *core.Instance, error) {
	topo, all, err := allocClusteredWorkload(clusters, seed)
	if err != nil {
		return nil, nil, err
	}
	build := func(flows []*flow.Flow) (*core.Instance, error) {
		set, err := flow.NewSet(flows...)
		if err != nil {
			return nil, err
		}
		return core.NewInstance(topo, set)
	}
	instA, err := build(all)
	if err != nil {
		return nil, nil, err
	}
	kept := make([]*flow.Flow, 0, len(all)-1)
	for _, f := range all {
		if f.ID() != "c0F-top" {
			kept = append(kept, f)
		}
	}
	instB, err := build(kept)
	if err != nil {
		return nil, nil, err
	}
	return instA, instB, nil
}

// allocSection measures the sharded allocation engine on a 32-component
// instance: the sequential oracle walk, the 8-worker sharded fan-out
// (identical bits; on a single-core box it degenerates to the oracle
// plus striping overhead), and the churn-delta path — one flow leaves,
// only its component re-solves, everything else copies cached shares.
// Emitted to BENCH_alloc.json by `make bench-alloc`.
func allocSection(_ float64, seed int64, sec *Section) error {
	fmt.Println("== Sharded allocation engine ==")
	const clusters = 32
	instA, instB, err := allocClusteredInstances(clusters, seed)
	if err != nil {
		return err
	}
	opts := core.CentralizedOptions{Refine: true}

	seqAlloc := core.NewAllocatorWorkers(1)
	seqNs, err := nsPerOp(func() error {
		seqAlloc.ResetCache()
		_, err := seqAlloc.Centralized(instA, opts)
		return err
	})
	if err != nil {
		return err
	}
	sec.add("centralizedSequential", map[string]float64{"nsPerOp": seqNs, "groups": clusters})
	fmt.Printf("centralized sequential walk:     %10.0f ns/op  (%d groups)\n", seqNs, clusters)

	const shardWorkers = 8
	parAlloc := core.NewAllocatorWorkers(shardWorkers)
	parNs, err := nsPerOp(func() error {
		parAlloc.ResetCache()
		_, err := parAlloc.Centralized(instA, opts)
		return err
	})
	if err != nil {
		return err
	}
	sec.add("centralizedSharded", map[string]float64{"nsPerOp": parNs, "workers": shardWorkers})
	fmt.Printf("centralized sharded fan-out:     %10.0f ns/op  (%d workers on %d CPUs)\n",
		parNs, shardWorkers, runtime.GOMAXPROCS(0))

	// Churn delta: re-warm on the pre-churn instance off the clock so
	// every timed solve is exactly one churn event on a warm allocator.
	churnAlloc := core.NewAllocatorWorkers(1)
	const churnIters = 200
	var churnNs float64
	var solved, reused, groups int
	for i := 0; i < churnIters; i++ {
		churnAlloc.ResetCache()
		if _, err := churnAlloc.Centralized(instA, opts); err != nil {
			return err
		}
		start := time.Now()
		_, delta, err := churnAlloc.CentralizedDelta(instB, opts)
		if err != nil {
			return err
		}
		churnNs += float64(time.Since(start).Nanoseconds())
		solved += delta.Solved
		reused += delta.Reused
		groups += delta.Groups
	}
	churnNs /= churnIters
	solvesPerEvent := float64(solved) / churnIters
	groupsPerEvent := float64(groups) / churnIters
	reduction := math.Inf(1)
	if solvesPerEvent > 0 {
		reduction = groupsPerEvent / solvesPerEvent
	}
	sec.add("churnDelta", map[string]float64{
		"nsPerOp":        churnNs,
		"solvesPerEvent": solvesPerEvent,
		"reusedPerEvent": float64(reused) / churnIters,
		"groupsPerEvent": groupsPerEvent,
		"solveReduction": reduction,
	})
	fmt.Printf("churn-delta re-solve:            %10.0f ns/op  (%.1f of %.0f group LPs solved, %.0fx fewer)\n",
		churnNs, solvesPerEvent, groupsPerEvent, reduction)
	return nil
}

// measuredRun runs one simulation with the clock and the heap's malloc
// counter read around it. Callers divide summed mallocs by summed
// delivered packets, perfbench's sim.allocs_per_pkt definition: the
// whole run, stack construction included, so it is never negative.
func measuredRun(inst *core.Instance, cfg netsim.Config) (r *netsim.Result, wall, mallocs float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	r, err = netsim.Run(inst, cfg)
	wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	return r, wall, float64(after.Mallocs - before.Mallocs), err
}

// macSection measures the MAC/PHY packet-datapath fast path: the
// wall-clock simulation rate of full protocol stacks on the paper's
// scenarios, channel accounting, and heap allocations per delivered
// packet. Emitted to BENCH_mac.json by `make bench-mac`.
func macSection(_ float64, seed int64, sec *Section) error {
	fmt.Println("== MAC/PHY datapath fast path ==")
	const rateDur = 30 * sim.Second
	for _, c := range []struct {
		name  string
		build func() (*scenario.Scenario, error)
		p     netsim.Protocol
	}{
		{"fig1-802.11", scenario.Figure1, netsim.Protocol80211},
		{"fig6-2pa-c", scenario.Figure6, netsim.Protocol2PAC},
	} {
		sc, err := c.build()
		if err != nil {
			return err
		}
		cfg := netsim.Config{Protocol: c.p, Duration: sim.Second, Seed: seed}
		// Warm once so the timed run sees steady-state code paths.
		if _, err := netsim.Run(sc.Inst, cfg); err != nil {
			return err
		}
		cfg.Duration = rateDur
		r, wall, mallocs, err := measuredRun(sc.Inst, cfg)
		if err != nil {
			return err
		}
		rate := rateDur.Seconds() / wall
		perPkt := mallocs / float64(max(r.Stats.TotalEndToEnd(), 1))
		fmt.Printf("%-12s %8.0f simSec/s  util=%.3f collisionOverhead=%.3f  %.3f allocs/delivered pkt\n",
			c.name, rate, r.Airtime.Utilization(), r.Airtime.CollisionOverhead(), perPkt)
		sec.add(c.name, map[string]float64{
			"simSecPerS":         rate,
			"utilization":        r.Airtime.Utilization(),
			"collisionOverhead":  r.Airtime.CollisionOverhead(),
			"allocsPerDelivered": perPkt,
		})
	}
	return nil
}

// simSection measures the default netsim.Run on the eight-tile Figure
// 6 workload, which it shards by radio component: wall-clock
// simulation rate (best of three runs) and heap allocations per
// delivered packet over those runs. Emitted to BENCH_sim.json by
// `make bench-sim`.
func simSection(_ float64, seed int64, sec *Section) error {
	fmt.Println("== Packet simulation on 8 disjoint Fig. 6 tiles ==")
	base, err := scenario.Figure6()
	if err != nil {
		return err
	}
	sc, err := scenario.Tiled(base, 8)
	if err != nil {
		return err
	}
	cfg := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: seed}
	// Warm the code paths off the clock.
	if _, err := netsim.Run(sc.Inst, cfg); err != nil {
		return err
	}
	cfg.Duration = 10 * sim.Second
	best := math.Inf(1)
	var mallocs float64
	var delivered, total int64
	for rep := 0; rep < 3; rep++ {
		r, wall, m, err := measuredRun(sc.Inst, cfg)
		if err != nil {
			return err
		}
		best = min(best, wall)
		mallocs += m
		delivered = r.Stats.TotalEndToEnd()
		total += delivered
	}
	rate := cfg.Duration.Seconds() / best
	perPkt := mallocs / float64(max(total, 1))
	fmt.Printf("%8.1f simSec/s   %8.3f allocs/delivered pkt   (%d pkt/run)\n", rate, perPkt, delivered)
	sec.add("tiled8-2pa-c", map[string]float64{
		"simSecPerS":         rate,
		"allocsPerDelivered": perPkt,
		"deliveredPkt":       float64(delivered),
	})
	return nil
}

// topoSection measures the topology-layer fast path: grid-backed
// neighbor builds against the seed's all-pairs scan, incidence-based
// contention builds against the pairwise predicate sweep, and the
// incremental mobility epoch pipeline against the full per-epoch
// rebuild. Emitted to BENCH_topo.json by `make bench-topo`.
func topoSection(_ float64, seed int64, sec *Section) error {
	fmt.Println("== Topology-layer fast path ==")
	rng := rand.New(rand.NewSource(seed))

	// Topology build: random placements at constant density (~10
	// neighbors per node at the default 250 m range).
	for _, n := range []int{1000, 4000} {
		side := math.Sqrt(float64(n) * 19635)
		names := make([]string, n)
		pts := make([]geom.Point, n)
		for i := range pts {
			names[i] = fmt.Sprintf("n%d", i)
			pts[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		}
		gridNs, err := nsPerOp(func() error {
			b := topology.NewBuilder(topology.DefaultRange, 0)
			for i := range pts {
				b.Add(names[i], pts[i].X, pts[i].Y)
			}
			_, err := b.Build()
			return err
		})
		if err != nil {
			return err
		}
		// The seed's neighbor discovery, reproduced verbatim in shape:
		// for every node, a scan over every other node, then a per-row
		// sort — exactly what Builder.Build did before the grid index.
		naiveNs, err := nsPerOp(func() error {
			nbr := make([][]topology.NodeID, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if j != i && pts[i].InRange(pts[j], topology.DefaultRange) {
						nbr[i] = append(nbr[i], topology.NodeID(j))
					}
				}
				row := nbr[i]
				sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("topology build n=%-5d  grid %8.0f ns/node   all-pairs scan %8.0f ns/node   speedup %5.1fx\n",
			n, gridNs/float64(n), naiveNs/float64(n), naiveNs/gridNs)
		sec.add(fmt.Sprintf("build-n%d", n), map[string]float64{
			"gridNsPerNode":  gridNs / float64(n),
			"naiveNsPerNode": naiveNs / float64(n),
			"speedup":        naiveNs / gridNs,
		})
	}

	// Contention build on a 1000-node connected scenario with 60 routed
	// flows, the shape the allocation pipeline sees at scale.
	topo, err := topology.Random(topology.RandomConfig{
		Nodes: 1000, Width: 4400, Height: 4400, Connect: true,
	}, rng)
	if err != nil {
		return err
	}
	var subs []flow.Subflow
	for added := 0; added < 60; {
		src := topology.NodeID(rng.Intn(topo.NumNodes()))
		dst := topology.NodeID(rng.Intn(topo.NumNodes()))
		if src == dst {
			continue
		}
		path, err := routing.ShortestPath(topo, src, dst)
		if err != nil {
			continue
		}
		f, err := flow.New(flow.ID(fmt.Sprintf("F%d", added)), 1, path)
		if err != nil {
			continue
		}
		subs = append(subs, f.Subflows()...)
		added++
	}
	edges := contention.NewGraph(topo, subs).NumEdges()
	incNs, err := nsPerOp(func() error {
		contention.NewGraph(topo, subs)
		return nil
	})
	if err != nil {
		return err
	}
	pairNs, err := nsPerOp(func() error {
		count := 0
		for i := range subs {
			for j := i + 1; j < len(subs); j++ {
				if contention.Contend(topo, subs[i], subs[j]) {
					count++
				}
			}
		}
		if count != edges {
			return fmt.Errorf("pairwise sweep found %d edges, graph has %d", count, edges)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("contention build (%d subflows, %d edges): incidence %8.1f Medges/s   pairwise %8.1f Medges/s   speedup %5.1fx\n",
		len(subs), edges, float64(edges)/incNs*1e3, float64(edges)/pairNs*1e3, pairNs/incNs)
	sec.add("contention-1k", map[string]float64{
		"subflows":           float64(len(subs)),
		"edges":              float64(edges),
		"incidenceEdgesPerS": float64(edges) / incNs * 1e9,
		"pairwiseEdgesPerS":  float64(edges) / pairNs * 1e9,
		"speedup":            pairNs / incNs,
	})

	// Mobility epochs: slow nodes, so most epoch boundaries leave the
	// adjacency unchanged — the regime the incremental pipeline targets.
	mobFlows := make([]mobility.FlowSpec, 10)
	for i := range mobFlows {
		mobFlows[i] = mobility.FlowSpec{
			ID:  flow.ID(fmt.Sprintf("F%d", i+1)),
			Src: i * 8, Dst: 75 + i*7,
		}
	}
	mobCfg := mobility.Config{
		Nodes: 150,
		Waypoint: mobility.WaypointConfig{
			Width: 1800, Height: 1800, MinSpeed: 0.01, MaxSpeed: 0.1,
		},
		Flows:    mobFlows,
		Protocol: netsim.Protocol2PAC,
		Epoch:    2 * sim.Second,
		Duration: 60 * sim.Second,
		Seed:     seed,
		Net:      netsim.Config{PacketsPerS: 1},
	}
	epochs := float64(mobCfg.Duration / mobCfg.Epoch)
	incEpochNs, err := nsPerOp(func() error { _, err := mobility.Run(mobCfg); return err })
	if err != nil {
		return err
	}
	rebCfg := mobCfg
	rebCfg.Rebuild = true
	rebEpochNs, err := nsPerOp(func() error { _, err := mobility.Run(rebCfg); return err })
	if err != nil {
		return err
	}
	fmt.Printf("mobility epoch (150 nodes, 10 flows): incremental %6.3f ms/epoch   rebuild %6.3f ms/epoch   speedup %5.1fx\n",
		incEpochNs/epochs/1e6, rebEpochNs/epochs/1e6, rebEpochNs/incEpochNs)
	sec.add("mobility-epoch", map[string]float64{
		"incrementalMsPerEpoch": incEpochNs / epochs / 1e6,
		"rebuildMsPerEpoch":     rebEpochNs / epochs / 1e6,
		"speedup":               rebEpochNs / incEpochNs,
	})
	return nil
}

// resilienceSection exercises the fault-injection layer end to end: a
// lossy-channel sweep over the Fig. 6 scenario under 2PA-C, then a
// mid-run link cut on a diamond detour topology showing RERR-style
// repair, salvage and share reallocation, all with the invariant
// watchdog on.
func resilienceSection(durationSec float64, seed int64, sec *Section) error {
	fmt.Println("== Resilience: lossy channels & link-cut recovery ==")
	dur := sim.Time(durationSec * float64(sim.Second))

	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	for _, rate := range []float64{0, 0.01, 0.05} {
		cfg := netsim.Config{
			Protocol: netsim.Protocol2PAC, Duration: dur, Seed: seed, Watchdog: true,
		}
		if rate > 0 {
			cfg.Fault = &fault.Plan{Seed: seed, DefaultLoss: rate}
		}
		r, err := netsim.Run(sc.Inst, cfg)
		if err != nil {
			return err
		}
		rep := r.Resilience
		fmt.Printf("fig6 2PA-C loss=%-4.2f  delivered %6d  corrupt %6d  retryDrop %5d  queueDrop %5d  violations %d\n",
			rate, rep.Delivered, rep.CorruptFrames, rep.RetryDrops, rep.QueueDrops, len(rep.Violations))
		sec.add(fmt.Sprintf("fig6-loss-%g", rate), map[string]float64{
			"lossRate":       rate,
			"delivered":      float64(rep.Delivered),
			"corruptFrames":  float64(rep.CorruptFrames),
			"injectedLosses": float64(rep.InjectedLosses),
			"retryDrops":     float64(rep.RetryDrops),
			"queueDrops":     float64(rep.QueueDrops),
			"violations":     float64(len(rep.Violations)),
		})
	}

	// Mid-run link cut: a diamond A-B-C with detour A-D-C. The primary
	// route uses the cut link, so delivery depends on the full repair
	// pipeline (link-dead detection, RERR back-propagation, reroute,
	// salvage, reallocation).
	topo, err := topology.NewBuilder(topology.DefaultRange, 0).
		Add("A", 0, 0).Add("B", 200, 0).Add("C", 400, 0).Add("D", 200, 140).
		Build()
	if err != nil {
		return err
	}
	f, err := flow.New("F1", 1, []topology.NodeID{0, 1, 2})
	if err != nil {
		return err
	}
	set, err := flow.NewSet(f)
	if err != nil {
		return err
	}
	inst, err := core.NewInstance(topo, set)
	if err != nil {
		return err
	}
	// Cut the second hop so the RERR notification has one hop to
	// travel back: MTTR then shows the propagation delay.
	plan := &fault.Plan{
		Seed:       seed,
		LinkFaults: []fault.LinkFault{{A: 1, B: 2, Down: dur / 2}},
	}
	r, err := netsim.Run(inst, netsim.Config{
		Protocol: netsim.Protocol2PAC, Duration: dur, Seed: seed,
		PacketsPerS: 100, Fault: plan, Watchdog: true,
	})
	if err != nil {
		return err
	}
	rep := r.Resilience
	fmt.Printf("diamond link-cut at t=%.1fs: delivered %d/%d  reroutes %d  salvaged %d  reallocs %d (degraded %d)  MTTR %.0f µs  violations %d\n",
		(dur / 2).Seconds(), rep.Delivered, rep.Injected, rep.Reroutes,
		rep.Salvaged, rep.Reallocations, rep.DegradedAllocs,
		rep.MeanTimeToRepair().Seconds()*1e6, len(rep.Violations))
	sec.add("diamond-linkcut", map[string]float64{
		"delivered":      float64(rep.Delivered),
		"injected":       float64(rep.Injected),
		"reroutes":       float64(rep.Reroutes),
		"routeErrors":    float64(rep.RouteErrors),
		"salvaged":       float64(rep.Salvaged),
		"retryDrops":     float64(rep.RetryDrops),
		"noRouteDrops":   float64(rep.NoRouteDrops),
		"reallocations":  float64(rep.Reallocations),
		"degradedAllocs": float64(rep.DegradedAllocs),
		"mttrUs":         rep.MeanTimeToRepair().Seconds() * 1e6,
		"violations":     float64(len(rep.Violations)),
	})
	return nil
}

// twinSection measures the analytical-twin fast path: closed-form
// prediction error against the packet simulator on the golden Fig. 6
// stacks, the cost of a single estimate, and the epochs/s speedup of a
// twin-screened near-static mobility sweep over the unscreened
// baseline (the screened epochs skip the event loop entirely; the
// drift-control cadence still forces real simulations). Emitted to
// BENCH_twin.json by `make bench-twin`.
func twinSection(durationSec float64, seed int64, sec *Section) error {
	fmt.Println("== Analytical twin: closed-form predictions vs packet simulation ==")
	sc, err := scenario.Figure6()
	if err != nil {
		return err
	}
	dur := sim.Time(durationSec * float64(sim.Second))
	fmt.Printf("%-9s%12s%12s%10s%12s\n", "protocol", "twinPkt", "simPkt", "relErr", "confidence")
	for _, p := range []netsim.Protocol{
		netsim.Protocol80211, netsim.ProtocolTwoTier, netsim.Protocol2PAC,
		netsim.Protocol2PAD, netsim.ProtocolDFS,
	} {
		cfg := netsim.Config{Protocol: p, Duration: dur, Seed: seed}
		r, err := netsim.Run(sc.Inst, cfg)
		if err != nil {
			return err
		}
		est, err := netsim.TwinEstimate(sc.Inst, cfg, r.Shares)
		if err != nil {
			return err
		}
		simPkt := float64(r.Stats.TotalEndToEnd())
		relErr := math.Abs(est.TotalPkt-simPkt) / simPkt
		confident := 0.0
		if est.Confident {
			confident = 1
		}
		fmt.Printf("%-9s%12.0f%12.0f%10.3f%12.2f\n", p, est.TotalPkt, simPkt, relErr, est.Confidence)
		sec.add("crosscheck-fig6-"+p.String(), map[string]float64{
			"twinTotalPkt":  est.TotalPkt,
			"simTotalPkt":   simPkt,
			"relErr":        relErr,
			"twinLossRatio": est.LossRatio,
			"simLossRatio":  r.Stats.LossRatio(),
			"confidence":    est.Confidence,
			"confident":     confident,
		})
	}

	// The price of one closed-form estimate: O(cliques + hops), no event
	// loop — this is what replaces a full epoch simulation when screening.
	cfg2pac := netsim.Config{Protocol: netsim.Protocol2PAC, Duration: dur, Seed: seed}
	run2pac, err := netsim.Run(sc.Inst, netsim.Config{Protocol: netsim.Protocol2PAC, Duration: sim.Second, Seed: seed})
	if err != nil {
		return err
	}
	estNs, err := nsPerOp(func() error {
		_, err := netsim.TwinEstimate(sc.Inst, cfg2pac, run2pac.Shares)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("one estimate (fig6 2PA-C):       %10.0f ns/op\n", estNs)
	sec.add("estimateCost", map[string]float64{"nsPerOp": estNs})

	// Screened vs unscreened near-static mobility sweep: six crawling
	// nodes, two short flows, spare channel capacity — the regime the
	// twin short-circuits. The unscreened run simulates every epoch; the
	// screened run simulates only the drift-control epochs, and its
	// simulated epochs are byte-identical to the unscreened run's (pinned
	// by internal/mobility's twin tests). Best of three runs each.
	sweep := func(twinCfg *netsim.TwinConfig) mobility.Config {
		return mobility.Config{
			Nodes: 6,
			Waypoint: mobility.WaypointConfig{
				Width: 400, Height: 100, MinSpeed: 0.05, MaxSpeed: 0.2,
			},
			Flows: []mobility.FlowSpec{
				{ID: "FA", Src: 0, Dst: 1},
				{ID: "FB", Src: 2, Dst: 3},
			},
			Protocol: netsim.Protocol2PAC,
			Epoch:    2 * sim.Second,
			Duration: sim.Time(durationSec * float64(sim.Second)),
			Seed:     seed,
			// 60 pkt/s keeps the shared clique around 0.56 utilization —
			// confidently below the twin's saturation gate.
			Net: netsim.Config{Twin: twinCfg, PacketsPerS: 60},
		}
	}
	timedSweep := func(cfg mobility.Config) (*mobility.Result, float64, error) {
		if _, err := mobility.Run(cfg); err != nil { // warm off the clock
			return nil, 0, err
		}
		best := math.Inf(1)
		var res *mobility.Result
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			r, err := mobility.Run(cfg)
			if err != nil {
				return nil, 0, err
			}
			if wall := time.Since(start).Seconds(); wall < best {
				best = wall
				res = r
			}
		}
		return res, best, nil
	}

	plainRes, plainWall, err := timedSweep(sweep(nil))
	if err != nil {
		return err
	}
	epochs := float64(len(plainRes.Epochs))
	plainRate := epochs / plainWall
	fmt.Printf("sweep unscreened:                %10.0f epochs/s  (%d epochs, all simulated)\n",
		plainRate, len(plainRes.Epochs))
	sec.add("sweep-unscreened", map[string]float64{
		"epochs": epochs, "epochsPerS": plainRate, "delivered": float64(plainRes.TotalDelivered),
	})

	for _, tc := range []struct {
		label string
		every int
	}{{"default-cadence", 0}, {"cadence-32", 32}} {
		scrRes, scrWall, err := timedSweep(sweep(&netsim.TwinConfig{Every: tc.every}))
		if err != nil {
			return err
		}
		scrRate := epochs / scrWall
		speedup := scrRate / plainRate
		fmt.Printf("sweep screened (%-15s  %10.0f epochs/s  (%d screened / %d simulated)  speedup %5.1fx\n",
			tc.label+"):", scrRate, scrRes.EpochsScreened, scrRes.EpochsSimulated, speedup)
		sec.add("sweep-screened-"+tc.label, map[string]float64{
			"epochs":            epochs,
			"epochsPerS":        scrRate,
			"epochsScreened":    float64(scrRes.EpochsScreened),
			"epochsSimulated":   float64(scrRes.EpochsSimulated),
			"speedup":           speedup,
			"twinMinConfidence": scrRes.TwinMinConfidence,
			"delivered":         float64(scrRes.TotalDelivered),
		})
	}
	return nil
}
