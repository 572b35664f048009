package main

import (
	"math"
	"sort"
	"time"

	"hierpart/internal/graph"
	"hierpart/internal/hierarchy"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// tailLadder are the percentiles the tail rule picks from, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the tail rule to a sample count: the highest
// percentile of tailLadder whose nearest rank leaves at least
// minBeyond samples above it, and how many it leaves. With fewer than
// 2·minBeyond samples even the median does not qualify; ok is then
// false.
func tailPercentile(n int) (pct float64, beyond int, ok bool) {
	for _, p := range tailLadder {
		if b := n - rank(p, n); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// rank is the 1-based nearest rank of percentile p among n samples.
// The small offset keeps float error from pushing an exact rank (p99.9
// of 10000 is rank 9990) up by one.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n)-1e-6)), 1)
}

// percentile is the nearest-rank p-th percentile of the samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(p, len(s))-1]
}

// tail is the run's tail latency: the tail rule picks the percentile
// from the whole run's sample count, and the value is the median over
// the blocks of each block's percentile, so a burst of host noise in
// one block does not set it. Below 2·minBeyond samples no percentile
// qualifies and tail reports the largest sample, at percentile 100
// with 0 beyond.
func tail(blockSamples [][]time.Duration) (value time.Duration, pct float64, beyond int) {
	var all []time.Duration
	for _, b := range blockSamples {
		all = append(all, b...)
	}
	pct, beyond, ok := tailPercentile(len(all))
	if !ok {
		return percentile(all, 100), 100, 0
	}
	var vals []float64
	for _, b := range blockSamples {
		if len(b) > 0 {
			vals = append(vals, float64(percentile(b, pct)))
		}
	}
	return time.Duration(medianFloat(vals)), pct, beyond
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// costNorm is a placement's cost as a share of the worst possible:
// every edge across the most expensive hierarchy level, cm(0) × total
// edge weight. Lower is better; 0 means no edge crosses a priced
// boundary.
func costNorm(g *graph.Graph, H *hierarchy.Hierarchy, cost float64) float64 {
	worst := H.CM(0) * g.TotalWeight()
	if worst == 0 {
		return 0
	}
	return cost / worst
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
