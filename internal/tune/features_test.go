package tune

import (
	"testing"

	"comp/internal/minic"
)

const regularSrc = `
int A[4096];
int B[4096];
int main() {
    int n = 4096;
    #pragma offload target(mic:0) in(A : length(n)) out(B : length(n))
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[i] + 1;
    }
    return 0;
}
`

const irregularSrc = `
int A[4096];
int B[4096];
int idx[4096];
int main() {
    int n = 4096;
    #pragma offload target(mic:0) in(A : length(n)) in(idx : length(n)) out(B : length(n))
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        B[i] = A[idx[i]] + 1;
    }
    return 0;
}
`

func parseSrc(t *testing.T, src string) *minic.File {
	t.Helper()
	f, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := minic.Check(f).Err(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestExtractRegularLoop(t *testing.T) {
	w, err := Extract(parseSrc(t, regularSrc))
	if err != nil {
		t.Fatal(err)
	}
	if w.Loops != 1 {
		t.Fatalf("Loops = %v, want 1", w.Loops)
	}
	if w.Iters != 4096 {
		t.Errorf("Iters = %v, want 4096", w.Iters)
	}
	if w.StreamLegal != 1 || w.Vectorizable != 1 {
		t.Errorf("StreamLegal = %v, Vectorizable = %v, want 1, 1", w.StreamLegal, w.Vectorizable)
	}
	if w.Irregular != 0 || w.RegUnlocks != 0 {
		t.Errorf("Irregular = %v, RegUnlocks = %v, want 0, 0", w.Irregular, w.RegUnlocks)
	}
}

func TestExtractIrregularLoop(t *testing.T) {
	w, err := Extract(parseSrc(t, irregularSrc))
	if err != nil {
		t.Fatal(err)
	}
	if w.Irregular <= 0 {
		t.Errorf("Irregular = %v, want > 0", w.Irregular)
	}
	if w.StreamLegal != 0 {
		t.Errorf("StreamLegal = %v, want 0 (gather blocks streaming)", w.StreamLegal)
	}
	if w.RegUnlocks != 1 {
		t.Errorf("RegUnlocks = %v, want 1 (regularization would unlock it)", w.RegUnlocks)
	}
	if w.Vectorizable != 0 {
		t.Errorf("Vectorizable = %v, want 0", w.Vectorizable)
	}
}

func TestDistanceIdentityAndSymmetry(t *testing.T) {
	w := Features{Loops: 2, Iters: 1000, Irregular: 0.3}
	p := Platform{DevCores: 61, DevClockGHz: 1.1, PCIeGBs: 6}
	if d := Distance(w, p, w, p); d != 0 {
		t.Fatalf("self-distance = %v, want 0", d)
	}
	w2 := Features{Loops: 4, Iters: 2000}
	p2 := Platform{DevCores: 57, DevClockGHz: 1.0, PCIeGBs: 6}
	if Distance(w, p, w2, p2) != Distance(w2, p2, w, p) {
		t.Fatal("distance is not symmetric")
	}
	if Distance(w, p, w2, p2) <= 0 {
		t.Fatal("distinct points at distance 0")
	}
}
