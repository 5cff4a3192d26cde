GO ?= go

.PHONY: build test race bench bench-lp bench-alloc bench-mac bench-topo bench-sim bench-twin bench-serve bench-e2e

build:
	$(GO) build ./...

test: build
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Micro + macro benchmarks: clique enumeration, event engine, parallel
# sweeps, plus the package-level reference comparisons. Pipe two runs
# through benchstat to quantify a change.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# LP-solver perf trajectory: ns/op and allocs/op for cold solves,
# warm-started re-solves (must be 0 allocs/op) and the distributed
# first phase, written to BENCH_lp.json for PR-over-PR comparison.
bench-lp: build
	$(GO) run ./cmd/benchtables -only lp -json BENCH_lp.json

# Sharded allocation-engine perf trajectory: sequential oracle walk vs
# 8-worker sharded fan-out on a 32-component instance, and the
# churn-delta re-solve (solves per churn event must stay ≪ group
# count), written to BENCH_alloc.json.
bench-alloc: build
	$(GO) run ./cmd/benchtables -only alloc -json BENCH_alloc.json

# MAC/PHY datapath perf trajectory: full-stack simulation rate
# (simSec/s), channel accounting, and whole-run allocations per
# delivered packet, written to BENCH_mac.json.
bench-mac: build
	$(GO) run ./cmd/benchtables -only mac -json BENCH_mac.json

# Topology-layer perf trajectory: grid vs all-pairs build ns/node at
# 1k/4k nodes, incidence vs pairwise contention edges/s on a 1k-node
# scenario, and incremental vs rebuild mobility epoch wall time,
# written to BENCH_topo.json.
bench-topo: build
	$(GO) run ./cmd/benchtables -only topo -json BENCH_topo.json

# Simulator perf trajectory on eight disjoint Figure 6 tiles, which the
# default netsim.Run shards by radio component: simSec/s (best of 3)
# and whole-run allocations per delivered packet, written to
# BENCH_sim.json.
bench-sim: build
	$(GO) run ./cmd/benchtables -only sim -json BENCH_sim.json

# Serving-core perf trajectory: churn events/s for the per-event
# CentralizedDelta baseline vs the batch-coalescing engine at batch
# size 64 (speedup must stay ≥5x), the lock-free snapshot read path
# (ns/op; must stay 0 allocs/op), awaited register latency
# percentiles, and crash-recovery boot time (WAL replay events/s at
# 10k and 100k logged events), written to BENCH_serve.json.
bench-serve: build
	$(GO) run ./cmd/benchtables -only serve -json BENCH_serve.json

# Analytical-twin perf trajectory: prediction error vs the packet
# simulator on the Fig. 6 golden stacks, the cost of one closed-form
# estimate, and the epochs/s speedup of a twin-screened near-static
# mobility sweep (must stay ≥10x over the unscreened baseline), written
# to BENCH_twin.json.
bench-twin: build
	$(GO) run ./cmd/benchtables -only twin -json BENCH_twin.json

# The repository benchmark end to end (BENCHMARK.json): builds
# fairallocd and perfbench into .bench_build, drives the daemon over
# loopback on the churn-sparse workload, checks every published share
# against the centralized oracle, and runs the packet simulator on the
# served flow sets. The last line of stdout is the JSON result.
bench-e2e:
	bash perfbench/run.sh --workload churn-sparse --seed 1 --seconds 50 --trace 0
