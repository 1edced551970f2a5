package core

import (
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/pass"
	rt "comp/internal/runtime"
	"comp/internal/sim/machine"
	"comp/internal/transform"
	"comp/internal/tune"
)

const streamable = `
float in1[131072];
float out1[131072];
int n;
int main(void) {
    int i;
    n = 131072;
    for (i = 0; i < n; i++) {
        in1[i] = i % 100;
    }
    #pragma offload target(mic:0) in(in1 : length(n)) out(out1 : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        out1[i] = sqrt(in1[i]) * 2.0 + exp(in1[i] / 200.0);
    }
    return 0;
}
`

const gatherish = `
float a[65536];
int idx[65536];
float c[65536];
int n;
int main(void) {
    int i;
    n = 65536;
    for (i = 0; i < n; i++) {
        a[i] = i * 0.25;
        idx[i] = (i * 31) % n;
    }
    #pragma offload target(mic:0) in(a, idx : length(n)) out(c : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        c[i] = a[idx[i]] + 1.0;
    }
    return 0;
}
`

func runSource(t *testing.T, src string) rt.Result {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	res, err := rt.Run(p, rt.DefaultConfig())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestOptimizeAppliesStreaming(t *testing.T) {
	res, err := Optimize(streamable, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Remarks.Has("stream") {
		t.Fatalf("streaming not applied; report: %+v", res.Report)
	}
	src := res.Source()
	if !strings.Contains(src, "signal(") || !strings.Contains(src, "persist(1)") {
		t.Fatalf("transformed source missing streaming artifacts:\n%s", src)
	}
	// End to end: optimized program equivalent and faster.
	base := runSource(t, streamable)
	opt := runSource(t, src)
	b1, _ := base.Program.ArrayData("out1")
	b2, _ := opt.Program.ArrayData("out1")
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("out1[%d] differs: %v vs %v", i, b1[i], b2[i])
		}
	}
	if opt.Stats.Time >= base.Stats.Time {
		t.Fatalf("optimized %v not faster than base %v", opt.Stats.Time, base.Stats.Time)
	}
}

func TestOptimizeRegularizesThenStreams(t *testing.T) {
	res, err := Optimize(gatherish, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Remarks.Has("reorder") {
		t.Fatalf("reorder not applied; report: %+v", res.Report)
	}
	if !res.Report.Remarks.Has("stream") {
		t.Fatalf("stream not applied after regularization; report: %+v", res.Report)
	}
	base := runSource(t, gatherish)
	opt := runSource(t, res.Source())
	c1, _ := base.Program.ArrayData("c")
	c2, _ := opt.Program.ArrayData("c")
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("c[%d] differs: %v vs %v", i, c1[i], c2[i])
		}
	}
}

func TestOptimizeMergesMultipleOffloads(t *testing.T) {
	src := `
float a[16384];
float b[16384];
int n;
int steps;
int main(void) {
    int s;
    int i;
    n = 16384;
    steps = 8;
    for (s = 0; s < steps; s++) {
        #pragma offload target(mic:0) inout(a : length(n))
        #pragma omp parallel for
        for (i = 0; i < n; i++) {
            a[i] = a[i] + 1.0;
        }
        #pragma offload target(mic:0) in(a : length(n)) inout(b : length(n))
        #pragma omp parallel for
        for (i = 0; i < n; i++) {
            b[i] = b[i] + a[i];
        }
    }
    return 0;
}
`
	res, err := Optimize(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Remarks.Has("merge") {
		t.Fatalf("merge not applied; report: %+v", res.Report)
	}
	base := runSource(t, src)
	opt := runSource(t, res.Source())
	if opt.Stats.KernelLaunches >= base.Stats.KernelLaunches {
		t.Fatalf("launches not reduced: %d vs %d", opt.Stats.KernelLaunches, base.Stats.KernelLaunches)
	}
	a1, _ := base.Program.ArrayData("a")
	a2, _ := opt.Program.ArrayData("a")
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("a[%d] differs", i)
		}
	}
}

func TestOptimizeDisabledDoesNothing(t *testing.T) {
	res, err := Optimize(streamable, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Applied) != 0 {
		t.Fatalf("disabled options applied %+v", res.Report.Applied)
	}
}

func TestOptimizeHostOnlyProgramUntouched(t *testing.T) {
	src := `
float a[100];
int main(void) {
    int i;
    #pragma omp parallel for
    for (i = 0; i < 100; i++) {
        a[i] = i;
    }
    return 0;
}
`
	res, err := Optimize(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Applied) != 0 {
		t.Fatalf("host-only program was transformed: %+v", res.Report.Applied)
	}
}

func TestProfileDrivenBlockCount(t *testing.T) {
	base := runSource(t, streamable)
	k := machine.XeonPhi().LaunchOverhead
	prof := tune.BaselineFromStats(base.Stats, k)
	if prof.Transfer <= 0 || prof.Compute < 0 {
		t.Fatalf("profile = %+v", prof)
	}
	n := prof.Blocks()
	if n < 2 || n > 64 {
		t.Fatalf("model block count %d outside [2,64]", n)
	}
	res, err := Optimize(streamable, Options{
		Streaming: true, ReduceMemory: true, Profile: &prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Report.Applied {
		if a.Opt == "stream" && strings.Contains(a.Detail, "blocks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("profile-driven streaming not reported: %+v", res.Report)
	}
}

func TestReportFromRemarks(t *testing.T) {
	rs := pass.Remarks{
		{Pass: "streaming", Op: "stream", Pos: "3:4", Verdict: pass.VerdictApplied, Reason: "x"},
		{Pass: "streaming", Op: "stream", Pos: "7:4", Verdict: pass.VerdictSkippedIllegal, Reason: "no"},
	}
	r := ReportFromRemarks(rs)
	if len(r.Applied) != 1 || r.Applied[0].Opt != "stream" || r.Applied[0].At != "3:4" {
		t.Fatalf("Applied view = %+v", r.Applied)
	}
	if len(r.Notes) != 1 || !strings.Contains(r.Notes[0], "skipped-illegal") {
		t.Fatalf("Notes view = %+v", r.Notes)
	}
	if !strings.Contains(r.Applied[0].String(), "stream at 3:4: x") {
		t.Fatalf("Applied.String = %q", r.Applied[0].String())
	}
}

func TestAppliedString(t *testing.T) {
	a := Applied{Opt: "stream", Detail: "16 blocks"}
	if !strings.Contains(a.String(), "stream") {
		t.Fatal("Applied.String missing opt name")
	}
}

func TestOptimizeBadSource(t *testing.T) {
	if _, err := Optimize("int f(", DefaultOptions()); err == nil {
		t.Fatal("parse error not reported")
	}
	if _, err := Optimize("int main(void) { return ghost; }", DefaultOptions()); err == nil {
		t.Fatal("check error not reported")
	}
}

func TestDefaultBlocksUsedWithoutProfile(t *testing.T) {
	res, err := Optimize(streamable, Options{Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, a := range res.Report.Applied {
		if a.Opt == "stream" && strings.Contains(a.Detail, "20 blocks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("default block count not used: %+v (want %d)", res.Report.Applied, transform.DefaultBlocks)
	}
}
