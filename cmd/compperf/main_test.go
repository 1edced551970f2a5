package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const declPath = "../../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationMatchesMetrics holds BENCHMARK.json to the metric tables
// the program reports from: same workloads, same metrics in the same
// order, same units, valid names, and bounds where they belong.
func TestDeclarationMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(declPath)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	d, err := readDeclaration(declPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(d.Paths, ",") != "cmd/compperf" {
		t.Errorf("paths = %v, want [cmd/compperf]", d.Paths)
	}
	if strings.Join(d.Command, " ") != "bash cmd/compperf/run.sh" {
		t.Errorf("command = %v", d.Command)
	}
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, want the -seconds default %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(d.Workloads), len(allWorkloads))
	}
	for i, w := range d.Workloads {
		if w.Name != allWorkloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %q (why %q), want %q with a one-line why", i, w.Name, w.Why, allWorkloads[i].name)
		}
	}
	check := func(kind string, declared []declaredMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d reported", kind, len(declared), len(defs))
		}
		for i, m := range declared {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s[%d] = %s (%s), reported %s (%s)", kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: %s better = %q", kind, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: %s bound present = %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: %s bound %v outside (0, 0.25]", kind, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, endToEnd, true)
	check("per_layer", d.PerLayer, perLayer, false)
	setup := d.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric = %+v, want setup_s in s, lower", setup)
	}
	for _, m := range d.EndToEnd {
		if *m.Bound > *setup.Bound {
			t.Errorf("%s bound %v exceeds setup_s bound %v", m.Name, *m.Bound, *setup.Bound)
		}
	}
}

// smokeConfig is a short run: one set-up and a tail rule of one sample.
func smokeConfig(workload string, traced bool) runConfig {
	return runConfig{workload: workload, seed: 1, duration: 3 * time.Second, trace: traced,
		started: time.Now(), setups: 1, minTail: 1}
}

// checkResult holds a result to the declared schema: correct, nothing
// failed, and exactly the declared metrics with their units.
func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			t.Errorf("metric %s = %+v, want unit %s", d.name, v, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line %s: keys %v, err %v", line, keys, err)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := measure(smokeConfig(w.name, false), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
		})
	}
}

// TestSmokeTraced checks each workload's traced run: its metrics, that its
// Chrome trace parses and holds a span for every stack layer and for each
// of the workload's own calls, and that the metrics of the layers only it
// crosses are measured.
func TestSmokeTraced(t *testing.T) {
	for _, tc := range []struct {
		workload string
		calls    []string // workload calls the trace must hold
		nonzero  []string // byWorkload metrics the run must measure
	}{
		{"compile", nil, nil},
		{"serve-hot", []string{"serve.enqueue", "serve.wait"},
			[]string{"serve.batch_mean", "serve.plan_hit_ratio", "serve.overhead_frac"}},
		{"plan-cold", []string{"tune.extract", "tune.tune", "tune.probe"},
			[]string{"serve.batch_mean", "tune.probes_per_op"}},
		{"fleet-replay", []string{"fleet.enqueue", "fleet.step"}, []string{"serve.overhead_frac"}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			cfg := smokeConfig(tc.workload, true)
			cfg.traceOut = filepath.Join(t.TempDir(), "trace.json")
			res, err := measure(cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			for _, name := range tc.calls {
				if res.Metrics[name+".share"].Value <= 0 {
					t.Errorf("%s.share = %v, want > 0", name, res.Metrics[name+".share"].Value)
				}
			}
			for _, name := range tc.nonzero {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s = 0, want it measured", name)
				}
			}
			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			seen := map[string]bool{}
			for _, e := range trace.TraceEvents {
				if e.Ph != "X" || e.Dur < 0 {
					t.Fatalf("bad event %+v", e)
				}
				seen[e.Name] = true
			}
			for _, layer := range append(append([]string(nil), stackLayers...), tc.calls...) {
				if !seen[layer] {
					t.Errorf("trace has no %s span", layer)
				}
			}
		})
	}
}

// oneFailure is a workload whose n ops take 1, 2, ... n ms, except the
// middle one, which fails.
type oneFailure struct{ n int }

func (f oneFailure) timed(_ time.Duration, _ *tracer, ph *phase) error {
	for i := 1; i <= f.n; i++ {
		if i == f.n/2 {
			ph.fail()
			continue
		}
		ph.done(time.Duration(i) * time.Millisecond)
	}
	return nil
}
func (oneFailure) decompose(*tracer) error                   { return nil }
func (oneFailure) layers(*tracer, *phase) map[string]float64 { return nil }
func (oneFailure) check() (float64, int, error)              { return 1, 0, nil }
func (oneFailure) close()                                    {}

// TestFailedOpCountsAsMissedLatency pins that a failed op stays a latency
// sample, one that misses every limit: 100 attempted ops with one failure
// still report p90, and the failure moves it up.
func TestFailedOpCountsAsMissedLatency(t *testing.T) {
	m := map[string]metricValue{}
	cfg := runConfig{workload: "one-failure", duration: time.Second, minTail: minTailSamples}
	ph, err := measureUntraced(cfg, workload{name: cfg.workload}, oneFailure{n: 100}, m, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted != 100 || ph.failed != 1 || len(ph.lat) != 100 {
		t.Errorf("attempted %d, failed %d, %d samples; want 100, 1, 100", ph.attempted, ph.failed, len(ph.lat))
	}
	// Without the failure p90 would be 90.1 ms; the failed op sorts last.
	if got := m["op_p90_ms"].Value / ph.speedFactor(); math.Abs(got-91.1) > 1e-9 {
		t.Errorf("op_p90_ms = %v, want 91.1", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-trace", "2", "-workload", "compile"},
		{"-seconds", "0", "-workload", "compile"},
		{"-workload", "nope"},
		{"-trace-out", "x.json", "-workload", "compile"},
		{"-workload", "compile", "extra"},
		{"-agree", "onlyone"},
		{"-no-such-flag"},
	} {
		var stderr bytes.Buffer
		if code := run(args, io.Discard, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr %q)", args, code, stderr.String())
		}
	}
}

// writeRuns writes one result file per value of op_p50_ms, with every
// other metric fixed.
func writeRuns(t *testing.T, dir, workload string, p50s []float64, speedup float64, correct bool) {
	t.Helper()
	for i, v := range p50s {
		res := result{Correct: correct, Attempted: 10, Metrics: map[string]metricValue{}}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: 1, Unit: d.unit}
		}
		res.Metrics["op_p50_ms"] = metricValue{Value: v, Unit: "ms"}
		res.Metrics["sim_speedup_geomean"] = metricValue{Value: speedup, Unit: "x"}
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out := append([]byte("diagnostics\n"), line...)
		if err := os.WriteFile(filepath.Join(dir, workload+"."+string(rune('a'+i))+".json"), out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAgree(t *testing.T) {
	base := []float64{10, 10.2, 9.9, 10.1, 10}
	for _, tc := range []struct {
		name    string
		p50s    []float64
		speedup float64
		correct bool
		want    bool
	}{
		{"same", []float64{10.1, 9.8, 10, 10.3, 10}, 2, true, true},
		{"median moved past bound", []float64{13, 13.1, 12.9, 13, 13.2}, 2, true, false},
		{"exact metric differs", base, 2.5, true, false},
		{"wrong outputs", base, 2, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := t.TempDir(), t.TempDir()
			writeRuns(t, a, "compile", base, 2, true)
			writeRuns(t, b, "compile", tc.p50s, tc.speedup, tc.correct)
			var out bytes.Buffer
			ok, err := runAgree(declPath, a, b, &out)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.want {
				t.Errorf("agree = %v, want %v\n%s", ok, tc.want, out.String())
			}
		})
	}
}
