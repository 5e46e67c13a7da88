package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q·n samples at or below it. xs need not
// be sorted; it is not modified. An empty sample has no quantile.
func quantile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)], true
}

// rank is the 0-based nearest-rank index of the q-quantile of n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	return min(max(r, 0), n-1)
}

// medianOfQuantiles is the median over groups of each non-empty group's
// q-quantile. The groups are slices of time (windows, save rounds), so
// a burst of outside load that lands in a few of them moves those
// groups' quantiles but not the median; the per-group values are
// returned for the record.
func medianOfQuantiles(groups [][]float64, q float64) (float64, []float64) {
	var per []float64
	for _, g := range groups {
		if v, ok := quantile(g, q); ok {
			per = append(per, v)
		}
	}
	med, _ := quantile(per, 0.5)
	return med, per
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// dueLatency is an open-loop request's latency: from when the schedule
// said it was due, not from when the generator got round to sending it,
// so a stall that delays later sends is charged to every request it
// delays. lag is how late the generator sent it.
func dueLatency(due, sent, done time.Time) (latency, lag time.Duration) {
	return done.Sub(due), max(sent.Sub(due), 0)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func nsToMs(ns int64) float64    { return float64(ns) / 1e6 }

// windowRates splits [start, start+n·width) into n windows and returns
// how many of the event times fall in each, per second.
func windowRates(start time.Time, width time.Duration, n int, times []time.Time) []float64 {
	counts := make([]float64, n)
	for _, t := range times {
		if i := int(t.Sub(start) / width); i >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return counts
}
