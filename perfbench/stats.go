package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailMinBeyond is how many samples must lie beyond a reported tail: a
// percentile backed by fewer is one outlier, not a tail.
const tailMinBeyond = 10

// median returns the middle of samples (the mean of the two middle values
// for an even count), or 0 for none.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of samples, or 0 for
// none.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := sortedCopy(samples)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// tail returns the highest percentile that has at least minBeyond samples
// above it: the value at sorted index n-1-minBeyond, named as the share of
// samples at or below that index. ok is false when there are too few
// samples to leave minBeyond beyond any of them.
func tail(samples []float64, minBeyond int) (value, pct float64, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(samples)
	k := n - 1 - minBeyond
	return s[k], 100 * float64(k+1) / float64(n), true
}

// tailLabel renders a tail's percentile and sample count, e.g. "p98.9 of
// 912" or "p99.996 of 261464": one decimal more than it takes to tell the
// percentile from 100.
func tailLabel(pct float64, n int) string {
	decimals := 1
	if gap := 100 - pct; gap > 0 && gap < 1 {
		decimals = int(math.Ceil(-math.Log10(gap))) + 1
	}
	return fmt.Sprintf("p%.*f of %d", decimals, pct, n)
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// schedule is an open-loop arrival schedule: request i is due at
// start + i·interval whether or not earlier requests have finished.
type schedule struct {
	start    time.Time
	interval time.Duration
}

// due returns request i's due time.
func (s schedule) due(i int) time.Time {
	return s.start.Add(time.Duration(i) * s.interval)
}

// sinceDue is how long after an open-loop request's due time t came,
// never negative. With t the completion it is the request's latency, which
// charges a stall to every request queued behind it; with t the dispatch
// it is how late the generator ran.
func sinceDue(due, t time.Time) time.Duration {
	if d := t.Sub(due); d > 0 {
		return d
	}
	return 0
}
