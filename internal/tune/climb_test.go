package tune

import (
	"fmt"
	"testing"

	"comp/internal/runtime"
	"comp/internal/sim/engine"
)

func TestClimbFindsLadderMinimum(t *testing.T) {
	// Convex cost: minimum at 10.
	cost := func(blocks int) (engine.Duration, error) {
		d := blocks - 10
		return engine.Duration(1000 + d*d), nil
	}
	res, err := climb(40, DefaultMaxProbes, cost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 10 {
		t.Errorf("climb chose %d, want 10 (%+v)", res.Blocks, res)
	}
	if res.Probes > DefaultMaxProbes {
		t.Errorf("climb spent %d probes, budget %d", res.Probes, DefaultMaxProbes)
	}
}

func TestClimbRespectsProbeBudget(t *testing.T) {
	calls := 0
	// Monotone decreasing: the climb would walk the whole ladder.
	cost := func(blocks int) (engine.Duration, error) {
		calls++
		return engine.Duration(1000 - blocks), nil
	}
	res, err := climb(2, 2, cost)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || res.Probes != 2 {
		t.Errorf("spent %d measure calls / %d probes, budget 2", calls, res.Probes)
	}
	if res.Blocks == 0 {
		t.Error("no block count chosen within budget")
	}
}

func TestClimbSeedOutsideLadder(t *testing.T) {
	// Seed 64 (OptimalBlocks max) is above the top rung 50; the climb must
	// start at 50 and still walk downhill to the true minimum at 40.
	cost := func(blocks int) (engine.Duration, error) {
		d := blocks - 40
		return engine.Duration(100 + d*d), nil
	}
	res, err := climb(64, DefaultMaxProbes, cost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 40 {
		t.Errorf("climb chose %d, want 40 (%+v)", res.Blocks, res)
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
