package transform

import (
	"testing"

	"comp/internal/sim/engine"
)

// Regression: the transfer-bound branch computes N* = (D−C)/K, which drops
// below 2 whenever D−C < 2K, while the sqrt(D/K) floor it is raised to can
// itself round to 1. The clamp must pin the result at 2 — one block has no
// pipeline to overlap.
func TestOptimalBlocksClampsTransferBoundEdge(t *testing.T) {
	cases := []struct{ d, c, k engine.Duration }{
		// D−C = 1 < 2K = 10; sqrt(D/K) = sqrt(2) ≈ 1.41 rounds to 1.
		{d: 10, c: 9, k: 5},
		// D−C = 0 exactly at the branch boundary (c < d keeps it
		// transfer-bound only when strictly below; take c just under d).
		{d: 100, c: 99, k: 60},
		// Compute-bound with sqrt(D/K) < 1.5.
		{d: 10, c: 20, k: 8},
	}
	for _, tc := range cases {
		got := OptimalBlocks(tc.d, tc.c, tc.k)
		if got < minBlocks {
			t.Errorf("OptimalBlocks(%d, %d, %d) = %d, below the minimum %d",
				tc.d, tc.c, tc.k, got, minBlocks)
		}
		if got > maxBlocks {
			t.Errorf("OptimalBlocks(%d, %d, %d) = %d, above the maximum %d",
				tc.d, tc.c, tc.k, got, maxBlocks)
		}
	}
}

func TestClampBlocks(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{-3, minBlocks}, {0, minBlocks}, {1, minBlocks}, {2, 2},
		{17, 17}, {64, 64}, {65, maxBlocks}, {1000, maxBlocks},
	} {
		if got := clampBlocks(tc.in); got != tc.want {
			t.Errorf("clampBlocks(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// The degenerate-input guards must also respect the clamp range.
func TestOptimalBlocksDegenerateInputs(t *testing.T) {
	if got := OptimalBlocks(0, 100, 10); got != minBlocks {
		t.Errorf("OptimalBlocks(d=0) = %d, want %d", got, minBlocks)
	}
	if got := OptimalBlocks(100, 100, 0); got != maxBlocks {
		t.Errorf("OptimalBlocks(k=0) = %d, want %d", got, maxBlocks)
	}
}
