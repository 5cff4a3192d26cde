package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile. A p99 of 200 samples rests on two values, so the tail
// falls back to the highest percentile that still has minTail samples
// above it, and the report names the percentile actually used.
const minTail = 10

// dist is a sorted sample of durations in milliseconds.
type dist []float64

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func newDist(ms []float64) dist {
	s := append(dist(nil), ms...)
	sort.Float64s(s)
	return s
}

// at returns the nearest-rank q-quantile (0 < q ≤ 1).
func (s dist) at(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func (s dist) median() float64 { return s.at(0.5) }

// tail returns the want-quantile when at least minTail samples lie
// beyond it, else the highest quantile that keeps minTail samples
// beyond, together with the quantile used. With too few samples for
// any tail it returns the median and q = 0.5.
func (s dist) tail(want float64) (v, q float64) {
	n := len(s)
	if n <= minTail {
		return s.median(), 0.5
	}
	k := int(math.Ceil(want*float64(n))) - 1
	if limit := n - 1 - minTail; k > limit {
		k = limit
	}
	k = max(k, 0)
	q = float64(k+1) / float64(n)
	if q < 0.5 {
		return s.median(), 0.5
	}
	return s[k], q
}

func medianOf(xs []float64) float64 { return newDist(xs).median() }
