package main

import (
	"testing"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/vm"
)

// vmOutputs optimizes src under the default spec, compiles it to bytecode
// and returns the named arrays after one run, with the remark trail.
func vmOutputs(t *testing.T, src string, names []string) (outputs, *core.Result) {
	t.Helper()
	res, err := core.Optimize(src, core.DefaultOptions())
	if err != nil {
		t.Fatalf("optimize: %v\n%s", err, src)
	}
	p, err := interp.Compile(res.Source())
	if err != nil {
		t.Fatalf("compile optimized: %v\n%s", err, res.Source())
	}
	if err := vm.Attach(p); err != nil {
		t.Fatalf("vm compile: %v", err)
	}
	got, err := execute(p, nil, names)
	if err != nil {
		t.Fatalf("vm run: %v\n%s", err, res.Source())
	}
	return got, res
}

// TestGeneratedProgramsMatchOracle holds every generated shape to the
// tree-walker: seeds 1–64, each optimized under the default spec, must give
// the pragma-stripped program's outputs bit for bit.
func TestGeneratedProgramsMatchOracle(t *testing.T) {
	fired := map[string]int{}
	for seed := int64(1); seed <= 64; seed++ {
		p := generate(seed, 1+int(seed%16), 64)
		stripped, err := stripOffload(p.Source)
		if err != nil {
			t.Fatalf("seed %d: strip: %v", seed, err)
		}
		want, err := oracleRun(stripped, nil, p.Outputs)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v\n%s", seed, err, stripped)
		}
		got, res := vmOutputs(t, p.Source, p.Outputs)
		if err := want.diff(got); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Source)
		}
		for _, r := range res.Report.Remarks.Applied() {
			fired[r.Pass]++
		}
	}
	for _, name := range []string{"merge", "regularize", "streaming"} {
		if fired[name] == 0 {
			t.Errorf("pass %s never fired on a generated program (fired: %v)", name, fired)
		}
	}
}

// TestGenerateDeterministic pins that a seed fully determines the program.
func TestGenerateDeterministic(t *testing.T) {
	a, b := generate(7, 5, 32), generate(7, 5, 32)
	if a.Source != b.Source {
		t.Fatal("same seed generated different programs")
	}
	if c := generate(8, 5, 32); c.Source == a.Source {
		t.Fatal("different seeds generated the same program")
	}
}
