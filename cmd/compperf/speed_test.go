package main

import (
	"math"
	"testing"
)

// TestSpeedFactorScalesToReferenceHost pins the scaling: a host on which
// every part of the reference kernel takes twice the reference time halves
// every time it measures, and the parts combine by geometric mean.
func TestSpeedFactorScalesToReferenceHost(t *testing.T) {
	for _, tc := range []struct {
		parts [4]float64 // each part's median µs
		want  float64
	}{
		{[4]float64{2 * refNominalUs, 2 * refNominalUs, 2 * refNominalUs, 2 * refNominalUs}, 0.5},
		{[4]float64{refNominalUs / 4, refNominalUs * 4, refNominalUs, refNominalUs}, 1},
	} {
		var p speedProbe
		for i, us := range tc.parts {
			p.us[i] = []float64{us * 1.5, us, us * 0.9}
		}
		if got := p.factor(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("factor with parts %v = %v, want %v", tc.parts, got, tc.want)
		}
	}
}
