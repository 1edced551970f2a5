package bench

import (
	"encoding/json"
	"os"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// TestColumnarRegressionGuard regenerates the scalar-VM-vs-columnar report
// and fails if any vectorizable row's speedup ratio fell more than 10%
// below the committed BENCH_columnar.json. Scalar-only rows (no fused
// vector ops) sit near 1.0 by construction and are exempt from the
// per-row check, as are rows marked stale (their ratio was measured
// under an older loop count).
func TestColumnarRegressionGuard(t *testing.T) {
	var committed ColumnarReport
	g := startGuard(t, "BENCH_columnar.json", "compbench -columnar", &committed)
	g.requireRows(len(committed.Rows))

	fresh, err := NewRunner().ColumnarBench(committed.Iters)
	if err != nil {
		t.Fatal(err)
	}
	freshRows := map[string]ColumnarRow{}
	for _, row := range fresh.Rows {
		freshRows[row.Name] = row
	}

	for _, want := range committed.Rows {
		if want.Note != "" || want.VecLoops == 0 {
			continue
		}
		got, ok := freshRows[want.Name]
		if !ok {
			g.failf("%s: missing from fresh report", want.Name)
			continue
		}
		if got.VecLoops < want.VecLoops {
			g.failf("%s: %d fused vector loops vs committed %d (qualifier regressed)",
				want.Name, got.VecLoops, want.VecLoops)
			continue
		}
		if want.Stale {
			continue
		}
		g.speedup(want.Name, got.Speedup, want.Speedup)
	}
	g.speedup("geomean", fresh.GeomeanSpeedup, committed.GeomeanSpeedup)
	g.finish()
}

// TestColumnarVecLoopsMatchArtifact compiles every program row of the
// committed BENCH_columnar.json — the workloads and the synthetic kernels
// — and requires its fused vector-loop count to equal the row's vec_loops
// exactly. Unlike the gated guard, which times the rows and only catches
// lost loops, this runs in every test pass and also catches loops gained
// since the artifact was written.
func TestColumnarVecLoopsMatchArtifact(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_columnar.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed ColumnarReport
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	for _, b := range workloads.All() {
		srcs[b.Name] = b.Source
	}
	for _, k := range columnarKernels {
		srcs[k.name] = k.src
	}
	soa, err := soaVariant(nbodyAoS)
	if err != nil {
		t.Fatal(err)
	}
	srcs["nbody-soa"] = soa
	rows := 0
	for _, row := range committed.Rows {
		if row.Note != "" {
			continue
		}
		rows++
		src, ok := srcs[row.Name]
		if !ok {
			t.Errorf("%s: no such program", row.Name)
			continue
		}
		p, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		e, err := vm.NewEngine(p)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if got := e.Module().VecLoopCount(); got != row.VecLoops {
			t.Errorf("%s: %d fused vector loops, BENCH_columnar.json says %d", row.Name, got, row.VecLoops)
		}
	}
	if rows == 0 {
		t.Fatal("BENCH_columnar.json has no program rows")
	}
}
