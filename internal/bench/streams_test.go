package bench

import (
	"fmt"
	"strings"
	"testing"

	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// Acceptance: the block climb must converge within the probe budget and
// land within 10% of the exhaustive-sweep oracle on every workload.
func TestAutotunerMatchesOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("full autotuner validation skipped in -short mode")
	}
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			// One runner per parallel subtest (the run cache is not locked);
			// climb probes and sweep rungs still share it, so the oracle
			// comparison costs no duplicate runs.
			t.Parallel()
			r := NewRunner()
			tuned, err := r.TuneStreaming(b)
			if err != nil {
				t.Fatalf("tune: %v", err)
			}
			oracle, oracleN, err := r.SweepStreaming(b)
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			if tuned.Probes > tune.DefaultMaxProbes {
				t.Errorf("tuner spent %d probes, budget %d", tuned.Probes, tune.DefaultMaxProbes)
			}
			gap := float64(tuned.Time)/float64(oracle.Stats.Time) - 1
			if gap > 0.10 {
				t.Errorf("tuned blocks=%d time=%v is %.1f%% over oracle blocks=%d time=%v",
					tuned.Blocks, tuned.Time, gap*100, oracleN, oracle.Stats.Time)
			}
			t.Logf("%-14s tuned=%2d (%d probes) oracle=%2d gap=%+.1f%%",
				b.Name, tuned.Blocks, tuned.Probes, oracleN, gap*100)
		})
	}
}

// CI bench-smoke: two fast workloads, failing if the climb lands >15% off
// the exhaustive-sweep oracle. Runs in -short mode so the smoke job stays
// quick.
func TestBenchSmokeAutotuner(t *testing.T) {
	r := NewRunner()
	for _, name := range []string{"blackscholes", "dedup"} {
		b, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := r.TuneStreaming(b)
		if err != nil {
			t.Fatalf("%s: tune: %v", name, err)
		}
		oracle, oracleN, err := r.SweepStreaming(b)
		if err != nil {
			t.Fatalf("%s: sweep: %v", name, err)
		}
		if tuned.Probes > tune.DefaultMaxProbes {
			t.Errorf("%s: tuner spent %d probes, budget %d", name, tuned.Probes, tune.DefaultMaxProbes)
		}
		gap := float64(tuned.Time)/float64(oracle.Stats.Time) - 1
		if gap > 0.15 {
			t.Errorf("%s: tuned blocks=%d is %.1f%% over oracle blocks=%d", name, tuned.Blocks, gap*100, oracleN)
		}
	}
}

// A second climb for the same workload must pick the same blocks and run
// no simulation: every probe is served from the Runner's run cache.
func TestTuneStreamingCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("uses real runs")
	}
	r := NewRunner()
	b, err := workloads.Get("blackscholes")
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.TuneStreaming(b)
	if err != nil {
		t.Fatal(err)
	}
	runs := len(r.SortedCacheKeys())
	second, err := r.TuneStreaming(b)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Errorf("second climb %+v != first %+v", second, first)
	}
	if n := len(r.SortedCacheKeys()); n != runs {
		t.Errorf("second climb added %d runs to the cache", n-runs)
	}
}

// Scheduler speedup on workloads known to profit from device sharing: the
// concurrent batch must beat the serialized one by ≥1.3×. Uses the climb
// directly (not StreamsBenchmark) so the sweep oracle — already exercised
// by TestAutotunerMatchesOracle — is not re-run; the full-suite figures
// live in BENCH_streams.json (compbench -streams).
func TestSchedulerBeatsSerialized(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduler comparison skipped in -short mode")
	}
	for _, name := range []string{"dedup", "kmeans", "nn", "hotspot"} {
		b, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			r := NewRunner()
			tuned, err := r.TuneStreaming(b)
			if err != nil {
				t.Fatalf("tune: %v", err)
			}
			ro := workloads.RunOptions{Variant: workloads.MICOptimized, Opt: streamingOptions(b, tuned.Blocks)}
			times := map[int]engine.Duration{}
			var crossOverlap engine.Duration
			for _, nStreams := range []int{1, 4} {
				sched, err := runtime.NewScheduler(runtime.DefaultConfig(), nStreams)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 4; i++ {
					p, _, err := b.Prepare(ro)
					if err != nil {
						t.Fatal(err)
					}
					sched.Submit(runtime.Request{
						Label:   fmt.Sprintf("%s-%02d", b.Name, i),
						Program: p,
						Setup:   b.Setup,
					})
				}
				res, err := sched.Run()
				if err != nil {
					t.Fatalf("%d streams: %v", nStreams, err)
				}
				times[nStreams] = res.Stats.Time
				if nStreams > 1 {
					crossOverlap = res.Stats.CrossStreamOverlap
				}
			}
			speedup := float64(times[1]) / float64(times[4])
			if speedup < 1.3 {
				t.Errorf("scheduler speedup %.2f < 1.3 (serial %v, concurrent %v)",
					speedup, times[1], times[4])
			}
			if crossOverlap <= 0 {
				t.Error("no cross-stream overlap measured")
			}
			t.Logf("%-10s speedup=%.2f cross-overlap=%v", name, speedup, crossOverlap)
		})
	}
}

func TestStreamsRowSharedMemory(t *testing.T) {
	r := NewRunner()
	b, err := workloads.Get("ferret")
	if err != nil {
		t.Fatal(err)
	}
	row, err := r.StreamsBenchmark(b, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(row.Note, "n/a") {
		t.Errorf("shared-memory workload row = %+v, want n/a note", row)
	}
}
