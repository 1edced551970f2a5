package tune

import (
	"fmt"
	"testing"

	"comp/internal/runtime"
	"comp/internal/sim/engine"
)

// climbCurve walks a cost curve from seed with climb under a probe
// budget, returning the fastest block count and the measure calls spent.
func climbCurve(seed, budget int, cost func(blocks int) engine.Duration) (best, probes int, err error) {
	var bestT engine.Duration
	err = climb(seed, func(n int) (engine.Duration, bool, error) {
		if probes == budget {
			return 0, false, nil
		}
		probes++
		d := cost(n)
		if probes == 1 || d < bestT {
			best, bestT = n, d
		}
		return d, true, nil
	})
	return best, probes, err
}

func TestClimbFindsLadderMinimum(t *testing.T) {
	// Convex cost: minimum at 10.
	cost := func(blocks int) engine.Duration {
		d := blocks - 10
		return engine.Duration(1000 + d*d)
	}
	best, probes, err := climbCurve(40, DefaultMaxProbes, cost)
	if err != nil {
		t.Fatal(err)
	}
	if best != 10 {
		t.Errorf("climb chose %d after %d probes, want 10", best, probes)
	}
}

func TestClimbRespectsProbeBudget(t *testing.T) {
	// Monotone decreasing: the climb would walk the whole ladder, but it
	// stops as soon as the probe reports the budget spent.
	cost := func(blocks int) engine.Duration { return engine.Duration(1000 - blocks) }
	best, probes, err := climbCurve(2, 2, cost)
	if err != nil {
		t.Fatal(err)
	}
	if probes != 2 {
		t.Errorf("spent %d measure calls, budget 2", probes)
	}
	if best == 0 {
		t.Error("no block count chosen within budget")
	}
}

func TestClimbSeedOutsideLadder(t *testing.T) {
	// Seed 64 (OptimalBlocks max) is above the top rung 50; the climb must
	// start at 50 and still walk downhill to the true minimum at 40.
	cost := func(blocks int) engine.Duration {
		d := blocks - 40
		return engine.Duration(100 + d*d)
	}
	best, probes, err := climbCurve(64, DefaultMaxProbes, cost)
	if err != nil {
		t.Fatal(err)
	}
	if best != 40 {
		t.Errorf("climb chose %d after %d probes, want 40", best, probes)
	}
}

// The cost-model search refines its winner's block count with the same
// walk as ClimbBlocks: seeded at the same rung of one convex curve, both
// probe the same rungs in the same order and pick the same count.
func TestSearchClimbMatchesClimbBlocks(t *testing.T) {
	b := Baseline{Transfer: 100000, Compute: 100000, Launch: 1000}
	seed := b.Blocks()
	if seed != 10 {
		t.Fatalf("Baseline.Blocks() = %d, want 10", seed)
	}
	// Convex, minimum at rung 40: the walk must turn upward.
	cost := func(blocks int) engine.Duration {
		d := blocks - 40
		return engine.Duration(1000 + d*d)
	}

	var climbOrder []int
	choice, err := ClimbBlocks(b, func(n int) (engine.Duration, error) {
		climbOrder = append(climbOrder, n)
		return cost(n), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var searchOrder []int
	s := &search{
		model:  &CostModel{},
		probed: map[Config]engine.Duration{},
		measure: func(c Config) (engine.Duration, error) {
			searchOrder = append(searchOrder, c.Blocks)
			return cost(c.Blocks), nil
		},
	}
	if _, _, err := s.probe(Config{Spec: "streaming", Blocks: seed}); err != nil {
		t.Fatal(err)
	}
	if err := s.climbBlocks(); err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(searchOrder) != fmt.Sprint(climbOrder) {
		t.Errorf("search probed %v, ClimbBlocks probed %v", searchOrder, climbOrder)
	}
	if s.best.Blocks != choice.Blocks || s.best.Blocks != 40 {
		t.Errorf("search chose %d, ClimbBlocks %d, want 40", s.best.Blocks, choice.Blocks)
	}
}

func TestClimbPropagatesMeasureError(t *testing.T) {
	boom := fmt.Errorf("probe failed")
	if _, err := ClimbBlocks(Baseline{}, func(int) (engine.Duration, error) { return 0, boom }); err == nil {
		t.Fatal("measure error not propagated")
	}
}

// ClimbBlocks seeds at the §III-B optimum of the baseline: with a
// compute-bound baseline whose model optimum is 20, the first probe is
// rung 20, then its neighbours 10 and 40.
func TestClimbBlocksSeedsAtModelOptimum(t *testing.T) {
	b := Baseline{Transfer: 400000, Compute: 400000, Launch: 1000}
	if got := b.Blocks(); got != 20 {
		t.Fatalf("Baseline.Blocks() = %d, want 20", got)
	}
	var order []int
	res, err := ClimbBlocks(b, func(n int) (engine.Duration, error) {
		order = append(order, n)
		return engine.Duration(n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{20, 10, 40, 8, 4, 2}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("probe order %v, want %v", order, want)
	}
	if res.Blocks != 2 || res.Probes != len(order) {
		t.Errorf("result %+v, want 2 blocks after %d probes", res, len(order))
	}
}

func TestBaselineFromStatsClampsNegativeCompute(t *testing.T) {
	st := runtime.Stats{DeviceBusy: 10, KernelLaunches: 100, TransferBusy: 1000}
	if b := BaselineFromStats(st, engine.Duration(5)); b.Compute != 0 {
		t.Fatalf("compute = %v, want clamped 0", b.Compute)
	}
}
