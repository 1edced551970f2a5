package scenario

import (
	"strings"
	"testing"
)

// TestBuiltinInvariantsAndDeterminism is the acceptance gate: every
// built-in scenario must pass the serving invariants on two replays of the
// same seed with bit-identical per-request outcomes and ServerReport —
// including the fault-storm and hot-unplug scenarios.
func TestBuiltinInvariantsAndDeterminism(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Verify(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Submitted == 0 {
				t.Fatalf("%s expanded to an empty trace", sc.Name)
			}
		})
	}
}

// TestBuiltinSecondSeed replays a subset under a different seed: the
// invariants are seed-independent even where the Expect minimums are
// calibrated for seed 1.
func TestBuiltinSecondSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("second-seed sweep skipped in -short")
	}
	for _, name := range []string{"steady", "overload", "fault-storm", "hot-unplug"} {
		sc, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Expect = Expect{} // minimums are per-seed; the contract is not
		if _, err := Verify(sc, 20260808); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestReplayFaultStormRecovers(t *testing.T) {
	sc, err := Lookup("fault-storm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Completed != rep.Submitted {
		t.Fatalf("fault storm lost work: %d completed of %d submitted", rep.Completed, rep.Submitted)
	}
	if rep.FaultsInjected == 0 || rep.Retries == 0 {
		t.Fatalf("storm injected %d faults, %d retries — expected both nonzero", rep.FaultsInjected, rep.Retries)
	}
}

func TestReplayHotUnplugFallsBack(t *testing.T) {
	sc, err := Lookup("hot-unplug")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Report.Completed != res.Report.Submitted {
		t.Fatalf("unplug lost work: %d completed of %d submitted", res.Report.Completed, res.Report.Submitted)
	}
	if res.Report.Fallbacks == 0 {
		t.Fatal("unplugged windows recorded no degradation-ladder fallbacks")
	}
	// Requests outside the unplug window must not have degraded.
	sawClean := false
	for _, out := range res.Outcomes {
		req := res.Trace.Requests[out.ID]
		if (req.Window < 2 || req.Window >= 6) && out.Fallbacks == 0 {
			sawClean = true
		}
	}
	if !sawClean {
		t.Fatal("no request outside the unplug window completed without fallbacks")
	}
}

func TestReplayDeadlineHeavyExpires(t *testing.T) {
	sc, err := Lookup("deadline-heavy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.Report.Expired == 0 {
		t.Fatal("deadline-heavy scenario expired nothing")
	}
}

// TestReplayBrokenHitsCachedError is the scenario-level cached-error
// regression: a mix of nothing but broken submissions builds the failing
// plan exactly once — every later request is answered from the cached
// error without recompiling or tuning.
func TestReplayBrokenHitsCachedError(t *testing.T) {
	sc := New("broken-only", 6).
		Arrive(Steady, 2).
		Broken(1).
		Server(2, 32, 4).
		MustBuild()
	res, err := Verify(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Failed != rep.Submitted {
		t.Fatalf("broken-only: %d failed of %d submitted", rep.Failed, rep.Submitted)
	}
	if rep.PlanMisses != 1 {
		t.Fatalf("broken plan built %d times, want exactly 1 (cached error)", rep.PlanMisses)
	}
	if rep.TuneProbes != 0 {
		t.Fatalf("broken plan spent %d tuning probes, want 0", rep.TuneProbes)
	}
	first := ""
	for _, out := range res.Outcomes {
		if out.Err == "" {
			t.Fatalf("broken request %d completed", out.ID)
		}
		if first == "" {
			first = out.Err
		} else if out.Err != first {
			t.Fatalf("broken requests saw different errors:\n  %q\n  %q", first, out.Err)
		}
	}
}

func TestReplaySqueezeSheds(t *testing.T) {
	sc := New("squeeze", 6).
		Arrive(Steady, 6).
		Synth(2, 1, false).
		Squeeze(2, 4, 1).
		Server(2, 32, 8).
		MustBuild()
	res, err := Verify(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Shed == 0 {
		t.Fatal("capacity squeeze shed nothing despite limit 1 under rate 6")
	}
	// Outside the squeeze the queue is ample: total shed must be well
	// below total arrivals.
	if res.Report.Shed >= res.Report.Submitted {
		t.Fatalf("everything shed (%d of %d)", res.Report.Shed, res.Report.Submitted)
	}
}

func TestReplayInvalidEntriesTyped(t *testing.T) {
	sc := New("invalid-mix", 4).
		Arrive(Steady, 4).
		Synth(2, 1, false).Invalid(1).
		Server(2, 32, 8).
		MustBuild()
	res, err := Verify(sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Invalid == 0 {
		t.Fatal("invalid mix produced no ErrInvalidJob rejections")
	}
	for _, out := range res.Outcomes {
		if sc.Mix[out.Mix].Invalid && !strings.Contains(out.Err, "invalid job") {
			t.Fatalf("invalid request %d got %q", out.ID, out.Err)
		}
	}
}
