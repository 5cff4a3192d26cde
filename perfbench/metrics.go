package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef is one reported metric: BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Why    string
}

// endToEnd are the metrics an untraced run (--trace 0) reports in its
// result line, each on every workload; their bounds live in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "daemon exec until /v1/healthz is 200 plus the base-population preload, plus the sim's instance build and warm-up; median of 5"},
	{"write_p50_ms", "ms", "lower", "register and remove latency from the scheduled send time, at the workload's fixed offered rate"},
	{"read_p50_ms", "ms", "lower", "GET /v1/shares/{id} latency from the scheduled send time, same rate"},
	{"peak_rss_mb", "MB", "lower", "VmHWM of fairallocd after the first fixed-rate segment"},
	{"sim_simsec_per_s", "simSec/s", "higher", "simulated seconds per wall second of 2PA-C on flow sets the daemon served, single engine"},
}

// printedOnly are end-to-end numbers every untraced run prints but
// the result line does not carry. The tails swing by 0.2 to 2 times
// their median from run to run on a 2-vCPU host with CPU steal (and
// with the heavy-tailed LP cost of churn-dense), beyond any bound a
// regression gate could use. The knee follows the host's speed, which
// drifts by a quarter over minutes on such a host, and its spread over
// ten runs came within 0.01 of the largest bound a gate may have.
// failed_frac is 0 in a correct run and travels as the result line's
// attempted/failed.
var printedOnly = []metricDef{
	{"max_write_rate_eps", "events/s", "higher", "highest offered write rate whose write p99 stays within the workload's limit with no growing backlog"},
	{"write_p99_ms", "ms", "lower", "write latency p99, or the highest percentile with >=10 samples beyond it"},
	{"read_p99_ms", "ms", "lower", "read latency p99, or the highest percentile with >=10 samples beyond it"},
	{"failed_frac", "ratio", "lower", "ops failed or refused (unexpected 4xx, 5xx, transport errors, failed checks) / ops attempted, all phases"},
}

// perLayer are the metrics a traced run (--trace 1) reports, each on
// every workload; a layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{"fairallocd.http_self_ms", "ms", "lower", "socket write p50 minus in-process serve.register_p50_ms for the same ops: the HTTP/JSON edge"},
	{"fairallocd.cpu_ms_per_kop", "ms", "lower", "daemon utime+stime per 1000 ops over the untraced HTTP pass"},
	{"fairallocd.status_429", "count", "lower", "HTTP 429 replies over the traced run's HTTP passes"},
	{"fairallocd.status_5xx", "count", "lower", "HTTP 5xx replies over the traced run's HTTP passes"},
	{"serve.register_p50_ms", "ms", "lower", "in-process RegisterAsync/RemoveAsync plus await, from the scheduled time, p50"},
	{"serve.register_p99_ms", "ms", "lower", "same, p99 (or the highest percentile with >=10 samples beyond it)"},
	{"serve.read_ns", "ns", "lower", "Engine.GetShare, p50 of 1000-call means"},
	{"serve.events_per_rebuild", "ratio", "higher", "Stats.Events / Stats.Rebuilds over the in-process pass"},
	{"serve.cache_hit_ratio", "ratio", "higher", "GroupsReused / (GroupsSolved + GroupsReused) over the in-process pass"},
	{"serve.groups_solved", "count", "lower", "GroupsSolved over the in-process pass (base of the hit ratio)"},
	{"serve.groups_reused", "count", "higher", "GroupsReused over the in-process pass (base of the hit ratio)"},
	{"serve.wait_ms", "ms", "lower", "in-process write span minus its batch's replayed stage spans: queue wait plus publish, p50"},
	{"flow.set_ms", "ms", "lower", "flow.NewSet on each committed batch's flow set, p50"},
	{"core.instance_ms", "ms", "lower", "core.NewInstance on each committed batch's flow set, p50"},
	{"contention.graph_ms", "ms", "lower", "contention.NewGraph for the same set, p50 (inside core.instance_ms)"},
	{"contention.cliques_ms", "ms", "lower", "Graph.MaximalCliques for the same set, p50 (inside core.instance_ms)"},
	{"contention.cliques", "count", "lower", "maximal cliques of the same set, p50"},
	{"core.delta_ms", "ms", "lower", "Allocator.CentralizedDelta on a warm per-shard allocator (the group LPs), p50"},
	{"core.groups_solved", "count", "lower", "group LPs CentralizedDelta solved over the replay"},
	{"durable.append_p50_ms", "ms", "lower", "ShardLog.AppendBatch under fsync always per batch, p50 (0 when volatile)"},
	{"durable.append_p99_ms", "ms", "lower", "same, p99 (or the highest percentile with >=10 samples beyond it)"},
	{"durable.bytes_per_event", "bytes", "lower", "WAL bytes appended per event (0 when volatile)"},
	{"durable.snapshot_ms", "ms", "lower", "ShardLog.WriteSnapshot per shard at the end of the replay, p50 (0 when volatile)"},
	{"sim.allocs_per_pkt", "allocs/pkt", "lower", "runtime Mallocs over one measured netsim.Run per delivered packet"},
	{"sim.gc_cycles", "count", "lower", "GC cycles over one measured netsim.Run"},
	{"sim.delivered_pkts", "count", "higher", "end-to-end packets delivered per measured run; changes only with behaviour"},
	{"mac.exchanges", "count", "higher", "successful MAC exchanges per measured run; changes only with behaviour"},
	{"mac.collision_ratio", "ratio", "lower", "collisions / (exchanges + collisions)"},
	{"loadgen.lag_p99_ms", "ms", "lower", "how late the generator released requests, p99: benchmark health, not the daemon"},
	{"loadgen.queue_ms", "ms", "lower", "in-process write ops' wait in the generator for a worker or for the previous register to their shard, p50"},
	{"trace.overhead_ms", "ms", "lower", "traced minus untraced socket write p50 on the same ops"},
	{"attrib.unattributed_ms", "ms", "lower", "write p50 minus http_self + loadgen.queue + serve.wait + replayed stage p50s: what the attribution misses"},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; the last stdout line is its JSON.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run: op counts, failed checks and metrics.
type report struct {
	attempted, failed int
	checks            []string // failed correctness checks
	invalid           []string // reasons the timings do not measure the daemon alone
	values            map[string]float64
	tailNote          string // which percentiles the tails are
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) count(ps phaseStats) {
	r.attempted += ps.attempted
	r.failed += ps.failed
	if ps.firstFailure != "" {
		r.checks = append(r.checks, "first failed op: "+ps.firstFailure)
	}
}

// fail records failed checks; each counts as a failed operation.
func (r *report) fail(msgs ...string) {
	r.checks = append(r.checks, msgs...)
	r.attempted += len(msgs)
	r.failed += len(msgs)
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// result builds the result line for the metric list of the run mode.
func (r *report) result(defs []metricDef) result {
	res := result{
		Correct:   len(r.checks) == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v := r.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric with no samples behind it is a broken run, and
			// JSON cannot carry it.
			res.Correct = false
			res.Failed++
			v = 0
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res
}

func (r *report) failedFrac() float64 {
	return float64(r.failed) / float64(max(r.attempted, 1))
}

// printTable writes the human-readable metric table.
func (r *report) printTable(out io.Writer, title string, defs []metricDef) {
	fmt.Fprintf(out, "== %s ==\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "  %-28s %14.6g %-10s\n", d.Name, r.values[d.Name], d.Unit)
	}
	for _, msg := range r.checks {
		fmt.Fprintf(out, "  CHECK FAILED: %s\n", msg)
	}
	for _, msg := range r.invalid {
		fmt.Fprintf(out, "  INVALID RUN: %s\n", msg)
	}
}

func writeResult(out io.Writer, res result) {
	data, _ := json.Marshal(res)
	fmt.Fprintln(out, string(data))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
