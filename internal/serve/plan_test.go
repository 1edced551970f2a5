package serve

import (
	"testing"

	"comp/internal/core"
	"comp/internal/runtime"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// TestUntunedPlansPinned pins the block count and probe count of untuned
// plans, which climb the ladder through core's measured recipe: streaming
// registry workloads climb from a baseline run (regularized for nn),
// non-streaming ones keep Blocks 0 with no probes, and an optimized inline
// job always climbs. Each plan serves exactly what core.Optimize emits at
// the climbed block count.
func TestUntunedPlansPinned(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DisableTrace = true
	for _, tc := range []struct {
		job            Job
		blocks, probes int
	}{
		{Job{Workload: "blackscholes"}, 10, 5},
		{Job{Workload: "kmeans"}, 20, 5},
		{Job{Workload: "nn"}, 50, 2},
		{Job{Workload: "dedup"}, 0, 0},
		{Job{Key: "inline", Source: synthSource(3), Outputs: []string{"b"}, Optimize: true}, 10, 4},
	} {
		tc := tc
		t.Run(tc.job.Key+tc.job.Workload, func(t *testing.T) {
			t.Parallel()
			plan, _, err := NewPlanner().planFor(tc.job, cfg, vm.ExecVM)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Blocks != tc.blocks || plan.TuneProbes != tc.probes {
				t.Errorf("plan has %d blocks after %d probes, want %d after %d",
					plan.Blocks, plan.TuneProbes, tc.blocks, tc.probes)
			}
			src := tc.job.Source
			if src == "" {
				b, err := workloads.Get(tc.job.Workload)
				if err != nil {
					t.Fatal(err)
				}
				src = b.Source
			}
			opt := core.DefaultOptions()
			opt.Blocks = tc.blocks
			want, err := core.Optimize(src, opt)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Source != want.Source() {
				t.Errorf("plan source differs from core.Optimize at %d blocks", tc.blocks)
			}
		})
	}
}
