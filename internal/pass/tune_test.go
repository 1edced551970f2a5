package pass

import (
	"strings"
	"testing"

	"comp/internal/minic"
)

const tuneTestSrc = `
int A[1000];
int B[1000];
int main() {
    int n = 1000;
    #pragma offload target(mic:0) in(A : length(n)) out(B : length(n))
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] + 1;
    }
    return 0;
}
`

func parseTuneTestFile(t *testing.T) *minic.File {
	t.Helper()
	f, err := minic.Parse(tuneTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(f).Err(); err != nil {
		t.Fatal(err)
	}
	return f
}

// The tune stage is file-scoped: one remark per run carrying the decision,
// regardless of how many loops the file has.
func TestTuneStageEmitsDecisionRemark(t *testing.T) {
	d := &TuneDecision{
		Spec: "merge,streaming", Blocks: 20,
		PredictedNs: 1000, MeasuredNs: 1100, Probes: 3, Source: "search",
	}
	m, err := Parse("tune,streaming", Config{Blocks: 20, Tuned: d})
	if err != nil {
		t.Fatal(err)
	}
	f := parseTuneTestFile(t)
	rs, err := m.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	var tuneRemarks Remarks
	for _, r := range rs {
		if r.Pass == "tune" {
			tuneRemarks = append(tuneRemarks, r)
		}
	}
	if len(tuneRemarks) != 1 {
		t.Fatalf("tune remarks = %d, want exactly 1 (file-scoped):\n%s", len(tuneRemarks), rs.Render())
	}
	r := tuneRemarks[0]
	if !r.Verdict.Applied() {
		t.Fatalf("tune remark verdict = %s, want applied", r.Verdict)
	}
	for _, k := range []string{"spec", "blocks", "predicted_ns", "measured_ns", "probes", "source"} {
		if _, ok := r.Args[k]; !ok {
			t.Errorf("tune remark missing arg %q: %v", k, r.Args)
		}
	}
	if got := r.Args["predicted_ns"]; got != int64(1000) {
		t.Errorf("predicted_ns = %v, want 1000", got)
	}
	if !rs.Has("stream") {
		t.Errorf("streaming did not run after the tune stage:\n%s", rs.Render())
	}
}

// A tune stage without a decision records a skipped remark, not an error:
// the pipeline stays runnable, it just documents that no tuner ran.
func TestTuneStageWithoutDecisionSkips(t *testing.T) {
	m, err := Parse("tune", Config{})
	if err != nil {
		t.Fatal(err)
	}
	f := parseTuneTestFile(t)
	rs, err := m.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Pass != "tune" || rs[0].Verdict.Applied() {
		t.Fatalf("remarks = %s, want one skipped tune remark", rs.Render())
	}
	if !strings.Contains(rs[0].Reason, "no tuning decision") {
		t.Errorf("reason = %q, want it to say no decision was available", rs[0].Reason)
	}
}

// The decision's Gap is the signed relative model error.
func TestTuneDecisionGap(t *testing.T) {
	cases := []struct {
		pred, meas int64
		want       float64
	}{
		{1100, 1000, 0.10},
		{900, 1000, -0.10},
		{0, 1000, 0},
		{1000, 0, 0},
	}
	for _, c := range cases {
		d := TuneDecision{PredictedNs: c.pred, MeasuredNs: c.meas}
		got := d.Gap()
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Gap(pred=%d, meas=%d) = %v, want %v", c.pred, c.meas, got, c.want)
		}
	}
}
