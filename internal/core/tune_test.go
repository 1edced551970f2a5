package core_test

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/sim/machine"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// memoWorkloads are the registry programs of compperf's plan-cold deck;
// on dedup and bfs every candidate prints the baseline program.
var memoWorkloads = []string{"nn", "dedup", "srad", "bfs", "kmeans", "blackscholes"}

func tunePlatform(b *workloads.Benchmark) runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.MIC = machine.XeonPhi()
	cfg.DisableTrace = true
	if b.CPUThreads > 0 {
		cfg.CPUThreads = b.CPUThreads
	}
	return cfg
}

// referenceDecision tunes with no memo: the baseline and every probe
// compile and run through core.TunedRun.
func referenceDecision(t *testing.T, b *workloads.Benchmark, cfg runtime.Config) tune.Decision {
	t.Helper()
	f, err := minic.Parse(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(f).Err(); err != nil {
		t.Fatal(err)
	}
	feats, err := tune.Extract(f)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.TunedRun(b.Source, tune.Config{}, cfg, b.Setup)
	if err != nil {
		t.Fatal(err)
	}
	d, err := (&tune.Tuner{}).Tune(tune.Request{
		Key:      b.Name,
		Workload: feats,
		Baseline: tune.BaselineFromStats(base.Stats, cfg.MIC.LaunchOverhead),
		Platform: cfg,
		Measure: func(c tune.Config) (engine.Duration, error) {
			res, err := core.TunedRun(b.Source, c, cfg, b.Setup)
			return res.Stats.Time, err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTuneSourceMatchesUnmemoized holds the memoized search to a search
// that runs every probe: same decision, same probe history. The memoized
// decisions are made concurrently on one shared Tuner.
func TestTuneSourceMatchesUnmemoized(t *testing.T) {
	got := make([]tune.Decision, len(memoWorkloads))
	errs := make([]error, len(memoWorkloads))
	shared := &tune.Tuner{}
	var wg sync.WaitGroup
	for i, name := range memoWorkloads {
		b, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = core.TuneSource(shared, name, b.Source, tunePlatform(b), b.Setup)
		}()
	}
	wg.Wait()
	for i, name := range memoWorkloads {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		b, _ := workloads.Get(name)
		want := referenceDecision(t, b, tunePlatform(b))
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: memoized decision differs from the unmemoized one\n got %+v\nwant %+v", name, got[i], want)
		}
	}
}

// TestTuneSourceRunsEachTextOnce counts runs through the setup hook: a
// decision runs exactly the distinct programs among its baseline and its
// probes, printed independently of the memo by core.OptimizeSpec.
func TestTuneSourceRunsEachTextOnce(t *testing.T) {
	for _, name := range memoWorkloads {
		b, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		runs := 0
		setup := func(p *interp.Program) error {
			runs++
			return b.Setup(p)
		}
		d, err := core.TuneSource(&tune.Tuner{}, name, b.Source, tunePlatform(b), setup)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := minic.Parse(b.Source)
		if err != nil {
			t.Fatal(err)
		}
		texts := map[string]bool{minic.Print(f): true}
		for _, p := range d.History {
			if p.Config.Spec == "" {
				continue
			}
			res, err := core.OptimizeSpec(b.Source, p.Config.Spec, probeConfig(p.Config))
			if err != nil {
				t.Fatalf("%s %+v: %v", name, p.Config, err)
			}
			texts[res.Source()] = true
		}
		if runs != len(texts) {
			t.Errorf("%s: %d runs for %d probes over %d distinct programs", name, runs, len(d.History), len(texts))
		}
		if (name == "dedup" || name == "bfs") && runs != 1 {
			t.Errorf("%s: %d runs, want 1 (every candidate is the baseline program)", name, runs)
		}
		if d.Probes != len(d.History) || d.Probes == 0 {
			t.Errorf("%s: Probes %d, history %d: probes must count every candidate considered", name, d.Probes, len(d.History))
		}
	}
}

// probeConfig is the pass configuration core.TunedRun compiles a
// candidate under.
func probeConfig(c tune.Config) pass.Config {
	return pass.Config{Blocks: c.Blocks, ReduceMemory: true, Persistent: true}
}

// faulty streams cleanly unless its setup hands it a short input array,
// which makes the host initialisation loop fault out of bounds.
const faulty = `
float in1[65536];
float out1[65536];
int n;
int main(void) {
    int i;
    n = 65536;
    for (i = 0; i < n; i++) {
        in1[i] = i % 100;
    }
    #pragma offload target(mic:0) in(in1 : length(n)) out(out1 : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        out1[i] = sqrt(in1[i]) * 2.0;
    }
    return 0;
}
`

// TestTuneSourceFaultIsNotMemoized checks that a faulting candidate
// surfaces its typed runtime error, through the search and directly, and
// that a failed run leaves no entry behind.
func TestTuneSourceFaultIsNotMemoized(t *testing.T) {
	runs, faultFrom := 0, 0
	setup := func(p *interp.Program) error {
		runs++
		if faultFrom > 0 && runs >= faultFrom {
			return p.SetArray("in1", make([]float64, 16))
		}
		return nil
	}
	cfg := runtime.DefaultConfig()
	cfg.DisableTrace = true

	// The baseline runs cleanly; the first probe of a new program faults.
	faultFrom = 2
	var rerr *interp.RuntimeError
	if _, err := core.TuneSource(&tune.Tuner{}, "faulty", faulty, cfg, setup); !errors.As(err, &rerr) {
		t.Fatalf("TuneSource error %v, want a *interp.RuntimeError", err)
	}

	m, err := core.NewMeasurer(faulty, cfg, setup)
	if err != nil {
		t.Fatal(err)
	}
	streamed := tune.Config{Spec: "streaming", Blocks: 4}
	runs, faultFrom = 0, 1
	if _, err := m.Measure(streamed); !errors.As(err, &rerr) {
		t.Fatalf("Measure error %v, want a *interp.RuntimeError", err)
	}
	faultFrom = 0
	first, err := m.Measure(streamed)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("%d runs after a fault and a retry, want 2: the fault was memoized", runs)
	}
	again, err := m.Measure(streamed)
	if err != nil || again != first || runs != 2 {
		t.Fatalf("repeat measured %v (%v) after %d runs, want the recorded %v without a run", again, err, runs, first)
	}
}

// TestMeasurerCloneMatchesOptimizeSpec checks the clone path candidate by
// candidate: optimizing a clone of the once-parsed file prints the same
// program as parsing and optimizing the source afresh, for every default
// spec and block count of every registry MiniC workload. Neither the
// candidates nor a full search (run on memoWorkloads) change the shared
// file.
func TestMeasurerCloneMatchesOptimizeSpec(t *testing.T) {
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		cfg := tunePlatform(b)
		m, err := core.NewMeasurer(b.Source, cfg, b.Setup)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		before := minic.Print(m.File())
		feats, err := tune.Extract(m.File())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range tune.DefaultSpecs(feats) {
			if spec == "" {
				continue
			}
			for _, n := range append([]int{0}, tune.Ladder()...) {
				c := tune.Config{Spec: spec, Blocks: n}
				got, err := core.CandidateText(m, c)
				if err != nil {
					t.Fatalf("%s %+v: %v", b.Name, c, err)
				}
				want, err := core.OptimizeSpec(b.Source, spec, probeConfig(c))
				if err != nil {
					t.Fatalf("%s %+v: %v", b.Name, c, err)
				}
				if got != want.Source() {
					t.Errorf("%s %+v: clone path printed a different program", b.Name, c)
				}
			}
		}
		if after := minic.Print(m.File()); after != before {
			t.Errorf("%s: optimizing candidates changed the shared file", b.Name)
		}
		if !slices.Contains(memoWorkloads, b.Name) {
			continue // the others search for tens of seconds on the tree-walker
		}
		if _, err := core.TuneMeasured(m, &tune.Tuner{}, b.Name); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if after := minic.Print(m.File()); after != before {
			t.Errorf("%s: a full search changed the shared file", b.Name)
		}
	}
}
