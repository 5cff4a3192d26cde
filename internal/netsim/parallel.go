package netsim

import (
	"fmt"
	"runtime"
	"sync"

	"e2efair/internal/core"
	"e2efair/internal/sim"
)

// Job is one independent simulation of a sweep: an instance plus a
// fully-specified config (protocol, seed, duration, ...). Jobs over
// the same *core.Instance may run concurrently — Run builds a private
// engine, medium, RNG, and collectors per call and only reads the
// instance.
type Job struct {
	Inst *core.Instance
	Cfg  Config
}

// SweepJobs expands the (instance × protocol × seed) cross product
// into a deterministic job list: instances outermost, then protocols,
// then seeds, mirroring how the paper's tables iterate runs.
func SweepJobs(insts []*core.Instance, cfg Config, protocols []Protocol, seeds []int64) []Job {
	jobs := make([]Job, 0, len(insts)*len(protocols)*len(seeds))
	for _, inst := range insts {
		for _, p := range protocols {
			for _, seed := range seeds {
				c := cfg
				c.Protocol = p
				c.Seed = seed
				jobs = append(jobs, Job{Inst: inst, Cfg: c})
			}
		}
	}
	return jobs
}

// RunParallel executes the jobs across a GOMAXPROCS worker pool and
// returns results in job order: results[i] is the outcome of jobs[i]
// regardless of which worker ran it or when it finished, so a parallel
// sweep is bit-identical to running the jobs sequentially. On failure
// the error of the lowest-indexed failing job is returned (also
// deterministic). Configs carrying a shared Tracer or Sharder must not
// be fanned out: a tracer would interleave events from concurrent
// engines, and a Sharder is not safe for concurrent use.
func RunParallel(jobs []Job) ([]*Result, error) {
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	results := make([]*Result, len(jobs))
	errs := make([]error, len(jobs))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One engine per worker, recycled across jobs via Reset:
			// the heap storage and event free list carry over, so a
			// long sweep stops paying per-run allocation for them.
			eng := sim.NewEngine()
			for i := range idx {
				cfg := jobs[i].Cfg
				cfg.eng = eng
				results[i], errs[i] = Run(jobs[i].Inst, cfg)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("netsim: job %d (%s, seed %d): %w",
				i, jobs[i].Cfg.Protocol, jobs[i].Cfg.Seed, err)
		}
	}
	return results, nil
}

// RunAllParallel is RunAll fanned across the worker pool: one run per
// protocol with the same config, results in protocol order.
func RunAllParallel(inst *core.Instance, cfg Config, protocols ...Protocol) ([]*Result, error) {
	jobs := make([]Job, len(protocols))
	for i, p := range protocols {
		c := cfg
		c.Protocol = p
		jobs[i] = Job{Inst: inst, Cfg: c}
	}
	return RunParallel(jobs)
}
