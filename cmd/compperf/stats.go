package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: p90 needs 100 samples, p99 needs 1000.
const minTailSamples = 10

// percentile returns the p-th percentile (0 < p < 100) of xs, interpolating
// linearly between order statistics. xs need not be sorted. Samples may be
// +Inf (failed ops): a percentile that reaches into them is +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[lo+1] {
		return s[lo]
	}
	if math.IsInf(s[lo+1], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

// tailPercentile returns p's percentile when at least minTail samples lie
// beyond it, and otherwise an error naming the sample count.
func tailPercentile(xs []float64, p float64, minTail int) (float64, error) {
	if beyond(len(xs), p) < float64(minTail) {
		return 0, fmt.Errorf("p%g needs at least %d samples, have %d", p, samplesFor(p, minTail), len(xs))
	}
	return percentile(xs, p), nil
}

// samplesFor returns how many samples put minTail of them beyond p's
// percentile.
func samplesFor(p float64, minTail int) int {
	return int(math.Ceil(float64(minTail)*100/(100-p) - 1e-6))
}

// highestPercentile names the highest of p50, p90, p99 and p99.9 that has
// at least minTailSamples samples beyond it, or 0 below 20 samples.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if beyond(n, p) >= minTailSamples {
			best = p
		}
	}
	return best
}

// beyond returns how many of n samples lie above the p-th percentile,
// rounded so that 100 samples put exactly 10 beyond p90.
func beyond(n int, p float64) float64 {
	return math.Round(float64(n)*(100-p)/100*1e6) / 1e6
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) computes them (the
// default "exclusive" method), so spreads read the same in either tool.
// It needs at least two samples.
func quartiles(xs []float64) (q1, med, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", len(xs))
	}
	s := sorted(xs)
	m := len(s) + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// median returns the middle of xs (the mean of the two middle samples for
// even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finite returns the samples of xs that are finite numbers: the latencies
// of the ops that did not fail.
func finite(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsInf(x, 0) && !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
