package main

import "math"

// Knee search parameters: the first probes move by a step (searchStep
// when nothing is known yet) until one passes and one fails, then
// bisection (geometric) narrows the
// bracket until its ends are within searchTol of each other, so the
// result repeats to within a few percent of the true knee. A stall
// that fails one probe below the knee misleads one search; the run
// reports the median knee of several.
const (
	searchStep      = 1.25
	searchStepNear  = 1.1 // from the previous round's knee
	searchTol       = 1.04
	searchMaxProbes = 12
)

// probe is one fixed-rate trial of the knee search.
type probe struct {
	Rate float64
	Pass bool
	Why  string // why it failed
}

// searchKnee returns the highest passing offered rate it found and the
// probes it made; 0 means no probed rate passed. The first probes move
// from start by step.
func searchKnee(start, step float64, try func(rate float64) probe) (float64, []probe) {
	lo, hi := 0.0, math.Inf(1)
	rate := start
	var probes []probe
	for len(probes) < searchMaxProbes {
		p := try(rate)
		p.Rate = rate
		probes = append(probes, p)
		if p.Pass {
			lo = math.Max(lo, rate)
		} else {
			hi = math.Min(hi, rate)
		}
		switch {
		case math.IsInf(hi, 1):
			rate *= step
		case lo == 0:
			rate /= step
		case hi/lo <= searchTol:
			return lo, probes
		default:
			rate = math.Sqrt(lo * hi)
		}
	}
	return lo, probes
}
