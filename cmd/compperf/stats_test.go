package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct {
		p, want float64
	}{
		{50, 3},
		{25, 2},
		{90, 4.6},
		{99.9, 4.996},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestPercentileCountsFailuresAsInfinite pins how failed ops, recorded as
// +Inf, enter a percentile: below the failed tail the percentile is a
// latency, and one that reaches into the tail is +Inf.
func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xs[99] = math.Inf(1)
	if got, err := tailPercentile(xs, 90, minTailSamples); err != nil || math.Abs(got-90.1) > 1e-9 {
		t.Errorf("p90 with one failure of 100 = %v, %v; want 90.1", got, err)
	}
	for i := 85; i < 100; i++ {
		xs[i] = math.Inf(1)
	}
	if got := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with 15 failures of 100 = %v, want +Inf", got)
	}
	if got := percentile(xs, 50); got != 50.5 {
		t.Errorf("p50 with 15 failures of 100 = %v, want 50.5", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		p       float64
		wantErr string
	}{
		{100, 90, ""},
		{99, 90, "p90 needs at least 100 samples, have 99"},
		{20, 50, ""},
		{19, 50, "p50 needs at least 20 samples, have 19"},
		{1000, 99, ""},
		{999, 99, "p99 needs at least 1000 samples, have 999"},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		_, err := tailPercentile(xs, tc.p, minTailSamples)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("n=%d p%v: unexpected error %v", tc.n, tc.p, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("n=%d p%v: error %v, want %q", tc.n, tc.p, err, tc.wantErr)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4),
// whose values are given here for each input.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, med, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatal(err)
		}
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median([]float64{7, 1, 3}); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4", got)
	}
}
