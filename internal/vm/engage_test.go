package vm_test

import (
	"testing"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// TestTierRunsNNGathers pins the columnar tier's engagement on nn's tuned
// plan (regularize,streaming over 50 blocks, BENCH_tune.json): the
// regularization loops that gather recs[8*g] and recs[8*g + 1] into dense
// arrays for each block run as batches, beside the 50 kernel loops. A
// qualification change that drops the strided gathers drops the count.
func TestTierRunsNNGathers(t *testing.T) {
	b, err := workloads.Get("nn")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.OptimizeSpec(b.Source, "regularize,streaming",
		pass.Config{Blocks: 50, ReduceMemory: true, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := interp.Compile(res.Source())
	if err != nil {
		t.Fatal(err)
	}
	e, err := vm.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	p.SetEngine(e)
	gathers := 0
	for _, ch := range e.Module().Funcs {
		for _, d := range ch.VecLoops {
			for _, s := range d.Sites {
				if s.Stride != 1 {
					gathers++
					break
				}
			}
		}
	}
	// Blocks 0 and 1 are gathered before the pipeline loop, and its even
	// and odd branches each gather the block two ahead: four places with
	// two gather loops each.
	if gathers != 8 {
		t.Fatalf("%d fused gather loops, want 8", gathers)
	}
	// Per run: 2 gathers for each of the 50 blocks plus 50 kernel loops.
	const perRun = 2*50 + 50
	for run := int64(1); run <= 2; run++ {
		if _, err := runtime.RunWithSetup(p, runtime.DefaultConfig(), b.Setup); err != nil {
			t.Fatal(err)
		}
		if got := vm.VecRuns(e); got != run*perRun {
			t.Fatalf("after run %d: %d batches, want %d", run, got, run*perRun)
		}
	}
}
