package tune

import (
	"fmt"

	"comp/internal/sim/engine"
)

// Block-count tuning by measurement. The §III-B model picks N analytically
// from D, C and K, but its assumptions — uniform blocks, a stable K,
// transfer and compute that scale linearly with block size — break under
// irregular workloads and shared devices. Zhang et al. ("Tuning Streamed
// Applications on Intel Xeon Phi") show measured feedback beats the closed
// form there. ClimbBlocks keeps the model as the starting point and lets
// measurement decide: it hill-climbs the ladder on simulated run times.
// The cost-model Tuner refines its winner's block count with the same
// climb.

// Ladder is the candidate block counts every tuner walks: the paper's
// sweep {10, 20, 40, 50} widened downward so transfer-dominated kernels
// that want shallow pipelines are reachable. It is sorted ascending.
func Ladder() []int { return []int{2, 4, 8, 10, 20, 40, 50} }

// DefaultMaxProbes is the simulator-probe budget of one tuning decision,
// for ClimbBlocks and the cost-model Tuner alike. A climb on the 7-rung
// ladder probes every rung in the worst case; 8 gives it one spare.
const DefaultMaxProbes = 8

// BlockChoice is the outcome of a block-count climb.
type BlockChoice struct {
	// Blocks is the chosen block count; Time its measured execution time.
	Blocks int
	Time   engine.Duration
	// Probes is how many measured runs the climb spent.
	Probes int
}

// ClimbBlocks picks a streaming block count by measurement. It seeds at
// the ladder rung nearest the §III-B optimum for the baseline and climbs
// from there, spending at most DefaultMaxProbes runs. measure runs the
// program streamed at one block count and returns its makespan.
func ClimbBlocks(b Baseline, measure func(blocks int) (engine.Duration, error)) (BlockChoice, error) {
	var res BlockChoice
	err := climb(b.Blocks(), func(n int) (engine.Duration, bool, error) {
		if res.Probes == DefaultMaxProbes {
			return 0, false, nil
		}
		d, err := measure(n)
		if err != nil {
			return 0, false, fmt.Errorf("tune: measuring %d blocks: %w", n, err)
		}
		res.Probes++
		if res.Probes == 1 || d < res.Time {
			res.Blocks, res.Time = n, d
		}
		return d, true, nil
	})
	return res, err
}

// climb is the one walk over the ladder, shared by ClimbBlocks and the
// cost-model search's block refinement. It probes the rung nearest seed,
// peeks at both neighbours to pick the downhill direction, then keeps
// walking while the measured time improves, stopping at a local minimum
// or as soon as probe reports (ok false) that the caller's budget is
// spent. The caller's probe keeps track of the fastest run.
func climb(seed int, probe func(blocks int) (d engine.Duration, ok bool, err error)) error {
	ladder := Ladder()
	at := nearestRung(ladder, seed)
	best, ok, err := probe(ladder[at])
	if !ok {
		return err
	}
	dir := 0
	for _, d := range []int{-1, +1} {
		j := at + d
		if j < 0 || j >= len(ladder) {
			continue
		}
		n, ok, err := probe(ladder[j])
		if !ok {
			return err
		}
		if n < best {
			best, dir = n, d
		}
	}
	for dir != 0 {
		at += dir
		j := at + dir
		if j < 0 || j >= len(ladder) {
			break
		}
		n, ok, err := probe(ladder[j])
		if !ok {
			return err
		}
		if n >= best {
			break
		}
		best = n
	}
	return nil
}

// nearestRung returns the index of the ladder value closest to seed, the
// lower rung on ties.
func nearestRung(ladder []int, seed int) int {
	best, bestDist := 0, -1
	for i, v := range ladder {
		d := v - seed
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
