package tune

import (
	"reflect"
	"strings"
	"testing"

	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/sim/machine"
)

// syntheticOracle is a stand-in simulator: ground truth follows the same
// analytic shape as the cost model but from a perturbed baseline, so the
// model ranks well without being exactly right — the situation the probe
// budget exists for.
func syntheticOracle(b Baseline, w Features, cfg runtime.Config) func(Config) (engine.Duration, error) {
	perturbed := b
	perturbed.Transfer = b.Transfer * 11 / 10
	perturbed.Compute = b.Compute * 9 / 10
	truth := &CostModel{Workload: w, Baseline: perturbed, Target: cfg}
	return func(c Config) (engine.Duration, error) {
		return truth.Predict(c), nil
	}
}

func testRequest(key string) Request {
	w := Features{
		Loops: 1, Iters: 4096, AccessBytes: 12,
		Vectorizable: 1, StreamLegal: 1,
	}
	b := Baseline{Transfer: 4e6, Compute: 2e6, Launch: 1000, Launches: 4, Time: 6e6}
	cfg := runtime.DefaultConfig()
	return Request{
		Key: key, Workload: w, Baseline: b, Platform: cfg,
		Measure: syntheticOracle(b, w, cfg),
	}
}

// sweepOracle measures every (spec, blocks) candidate exhaustively — the
// oracle the bounded search must match.
func sweepOracle(req Request) (Config, engine.Duration) {
	var best Config
	bestT := engine.Duration(1 << 62)
	for _, spec := range DefaultSpecs(req.Workload) {
		blockChoices := []int{0}
		if specStreams(spec) {
			blockChoices = Ladder()
		}
		for _, n := range blockChoices {
			c := Config{Spec: spec, Blocks: n}
			d, _ := req.Measure(c)
			if d < bestT {
				best, bestT = c, d
			}
		}
	}
	return best, bestT
}

func TestColdSearchMatchesOracleWithinBudget(t *testing.T) {
	req := testRequest("cold")
	tuner := &Tuner{}
	d, err := tuner.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if d.Probes == 0 || d.Probes > DefaultMaxProbes {
		t.Fatalf("probes = %d, want 1..%d", d.Probes, DefaultMaxProbes)
	}
	if d.Source != "search" {
		t.Fatalf("source = %q, want search", d.Source)
	}
	_, oracleT := sweepOracle(req)
	if engine.Duration(d.MeasuredNs) > oracleT {
		t.Fatalf("tuned %d ns worse than oracle %d ns", d.MeasuredNs, oracleT)
	}
	if d.PredictedNs <= 0 || d.MeasuredNs <= 0 {
		t.Fatalf("decision missing costs: %+v", d.TuneDecision)
	}
}

// A Tuner keeps no per-decision state: without a model, the same request
// searches again from scratch and lands on the same answer by the same
// probes.
func TestTunerHoldsNoDecisionState(t *testing.T) {
	req := testRequest("stateless")
	tuner := &Tuner{}
	first, err := tuner.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tuner.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Source != "search" || second.Probes != first.Probes || second.Config != first.Config {
		t.Fatalf("repeat decision %+v differs from first %+v", second.TuneDecision, first.TuneDecision)
	}
	if !reflect.DeepEqual(second.History, first.History) {
		t.Fatalf("repeat history %v differs from first %v", second.History, first.History)
	}
}

func TestWarmExactRepeatNeedsZeroProbes(t *testing.T) {
	model := NewModel()
	cold := &Tuner{Model: model}
	req := testRequest("warm")
	first, err := cold.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh tuner sharing only the persisted model — the cross-process
	// repeat case.
	warm := &Tuner{Model: model}
	second, err := warm.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Probes != 0 {
		t.Fatalf("warm repeat spent %d probes, want 0", second.Probes)
	}
	if second.Source != "model" {
		t.Fatalf("source = %q, want model", second.Source)
	}
	if second.Config != first.Config {
		t.Fatalf("warm repeat changed config: %+v vs %+v", second.Config, first.Config)
	}
}

// The held-out machine case: the model has only seen the stock Phi; tuning
// the same workload for a smaller sibling card must stay within two probes
// and still match that machine's own oracle sweep.
func TestWarmHeldOutMachineConvergesInTwoProbes(t *testing.T) {
	model := NewModel()
	cold := &Tuner{Model: model}
	req := testRequest("heldout")
	if _, err := cold.Tune(req); err != nil {
		t.Fatal(err)
	}

	held := req
	held.Platform.MIC = machine.XeonPhi()
	held.Platform.MIC.Name = "xeon-phi-smaller"
	held.Platform.MIC.Cores = 57
	held.Platform.MIC.ClockGHz = 1.0
	held.Baseline.Transfer = req.Baseline.Transfer * 10 / 9
	held.Measure = syntheticOracle(held.Baseline, held.Workload, held.Platform)

	warm := &Tuner{Model: model}
	d, err := warm.Tune(held)
	if err != nil {
		t.Fatal(err)
	}
	if d.Probes > 2 {
		t.Fatalf("held-out machine spent %d probes, want <= 2", d.Probes)
	}
	if d.Source != "model" {
		t.Fatalf("source = %q, want model", d.Source)
	}
	_, oracleT := sweepOracle(held)
	if engine.Duration(d.MeasuredNs) > oracleT*11/10 {
		t.Fatalf("held-out tuned %d ns, oracle %d ns: regression > 10%%", d.MeasuredNs, oracleT)
	}
}

func TestTuneRecordsHistoryAndObservesModel(t *testing.T) {
	model := NewModel()
	tuner := &Tuner{Model: model}
	req := testRequest("history")
	d, err := tuner.Tune(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.History) != d.Probes {
		t.Fatalf("history %d entries, probes %d", len(d.History), d.Probes)
	}
	if model.Len() != 1 {
		t.Fatalf("model samples = %d, want 1", model.Len())
	}
	s := model.Samples[0]
	if s.Key != "history" || s.Config != d.Config || s.MeasuredNs != d.MeasuredNs {
		t.Fatalf("observed sample mismatch: %+v vs decision %+v", s, d.TuneDecision)
	}
}

func TestTuneRequiresMeasure(t *testing.T) {
	tuner := &Tuner{}
	if _, err := tuner.Tune(Request{Key: "nil"}); err == nil || !strings.Contains(err.Error(), "Measure") {
		t.Fatalf("nil Measure accepted: %v", err)
	}
}

func TestDefaultSpecsCoverFeatureSpace(t *testing.T) {
	all := Features{
		Loops: 3, Irregular: 0.5, StreamLegal: 0.4, RegUnlocks: 0.3,
		MergeCands: 1, MergeInner: 2,
	}
	specs := DefaultSpecs(all)
	want := map[string]bool{"": false, pass.DefaultSpec: false, "merge,streaming,regularize": false}
	for _, s := range specs {
		if _, ok := want[s]; ok {
			want[s] = true
		}
	}
	for s, seen := range want {
		if !seen {
			t.Errorf("DefaultSpecs missing %q: %v", s, specs)
		}
	}
	none := DefaultSpecs(Features{})
	if len(none) != 1 || none[0] != "" {
		t.Errorf("featureless DefaultSpecs = %v, want just the baseline", none)
	}
}
