package transform_test

import (
	"testing"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/transform"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// The §IV regularization passes rewrite loop bodies and data layouts —
// exactly the transforms that could silently change answers. This sweep
// applies each pass individually to every registry workload it accepts and
// proves, through the interpreter (NullBackend: values only, no simulated
// machine), that the transformed program computes element-wise identical
// outputs to the program as written. It lives in an external test package
// because workloads depends on transform via core.

// regPass adapts the three §IV entry points to one shape: applications
// performed (0 = pass not applicable to this loop).
type regPass struct {
	name  string
	apply func(f *minic.File, loop *minic.ForStmt) (int, error)
}

func regPasses() []regPass {
	return []regPass{
		{"ReorderArrays", func(f *minic.File, loop *minic.ForStmt) (int, error) {
			return transform.ReorderArrays(f, loop, nil)
		}},
		{"SplitLoop", func(f *minic.File, loop *minic.ForStmt) (int, error) {
			ok, err := transform.SplitLoop(f, loop, nil)
			if ok {
				return 1, err
			}
			return 0, err
		}},
		{"AoSToSoA", transform.AoSToSoA},
	}
}

// nullRunSource executes MiniC source through the interpreter alone,
// injecting the given input setup after reset.
func nullRunSource(t *testing.T, src string, setup func(*interp.Program) error) *interp.Program {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(interp.NullBackend{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p
}

// applyPassToFile runs one pass over every offload loop in source order and
// returns the total applications.
func applyPassToFile(t *testing.T, pass regPass, f *minic.File) int {
	t.Helper()
	applied := 0
	for _, loop := range transform.FindOffloadLoops(f) {
		n, err := pass.apply(f, loop)
		if err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		applied += n
	}
	return applied
}

// diffOutputs compares the named output arrays and printed output of the
// transformed program against the untransformed reference, bit for bit.
func diffOutputs(t *testing.T, outputs []string, ref, got *interp.Program) {
	t.Helper()
	for _, name := range outputs {
		want, err := ref.ArrayData(name)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.ArrayData(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(have) {
			t.Fatalf("%s: length %d (transformed) vs %d (reference)", name, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s[%d]: transformed %v, reference %v", name, i, have[i], want[i])
			}
		}
	}
	if a, b := ref.Output(), got.Output(); a != b {
		t.Errorf("printed output differs: reference %q, transformed %q", a, b)
	}
}

// TestRegularizationDifferentialSweep applies each §IV pass on its own to
// every MiniC workload and requires bit-identical outputs versus the
// untransformed program. It also pins down which workloads each pass fires
// on, so a legality regression that silently stops a pass from applying
// (and would make the equivalence check vacuously pass) is caught.
func TestRegularizationDifferentialSweep(t *testing.T) {
	fired := map[string]map[string]bool{}
	for _, pass := range regPasses() {
		fired[pass.name] = map[string]bool{}
	}
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ref := nullRunSource(t, b.Source, b.Setup)
			for _, pass := range regPasses() {
				pass := pass
				t.Run(pass.name, func(t *testing.T) {
					f, err := minic.Parse(b.Source)
					if err != nil {
						t.Fatalf("parse: %v", err)
					}
					if applyPassToFile(t, pass, f) == 0 {
						t.Skipf("%s not applicable to %s", pass.name, b.Name)
					}
					fired[pass.name][b.Name] = true
					got := nullRunSource(t, minic.Print(f), b.Setup)
					diffOutputs(t, b.Outputs, ref, got)
				})
			}
		})
	}
	// Table II credits nn and srad with regularization; the sweep must have
	// actually exercised those pairs or the suite proves nothing.
	if !fired["ReorderArrays"]["nn"] {
		t.Error("ReorderArrays did not fire on nn (Table II regularization workload)")
	}
	if !fired["SplitLoop"]["srad"] {
		t.Error("SplitLoop did not fire on srad (Table II regularization workload)")
	}
}

// No registry workload declares an AoS struct (Table II's layout
// conversion shows up in nn's record reordering instead), so the AoS→SoA
// differential runs on a representative synthetic source: an n-body-style
// kernel whose offload loop reads three interleaved fields.
const aosDifferentialSource = `
struct body {
    float x;
    float y;
    float m;
};
struct body bodies[16384];
float ke[16384];
int n;
int main(void) {
    int i;
    n = 16384;
    for (i = 0; i < n; i++) {
        bodies[i].x = i * 0.5;
        bodies[i].y = 2.0 - i * 0.25;
        bodies[i].m = 1.0 + i % 9;
    }
    #pragma offload target(mic:0) in(bodies : length(n)) out(ke : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        ke[i] = 0.5 * bodies[i].m * (bodies[i].x * bodies[i].x + bodies[i].y * bodies[i].y);
    }
    return 0;
}
`

// TestAoSToSoADifferential is the interpreter-level differential for the
// layout pass: same values out of the SoA program, bit for bit.
func TestAoSToSoADifferential(t *testing.T) {
	ref := nullRunSource(t, aosDifferentialSource, nil)
	f, err := minic.Parse(aosDifferentialSource)
	if err != nil {
		t.Fatal(err)
	}
	pass := regPasses()[2]
	if pass.name != "AoSToSoA" {
		t.Fatal("pass table changed; update index")
	}
	if applyPassToFile(t, pass, f) == 0 {
		t.Fatal("AoSToSoA did not fire on the synthetic AoS kernel")
	}
	got := nullRunSource(t, minic.Print(f), nil)
	diffOutputs(t, []string{"ke"}, ref, got)
}

// composePasses applies all three §IV passes to the same file in one
// pipeline, returning per-pass application counts. Split runs before
// reorder: reordering first rewrites the gathered loop into a shape whose
// split precondition no longer holds (observed on srad), so the reverse
// order would silently degrade the composition to a single pass. The
// single-pass sweep above cannot catch interactions between rewrites that
// are individually sound.
func composePasses(t *testing.T, f *minic.File) map[string]int {
	t.Helper()
	passes := regPasses()
	passes[0], passes[1] = passes[1], passes[0] // SplitLoop, ReorderArrays, AoSToSoA
	fired := map[string]int{}
	for _, pass := range passes {
		fired[pass.name] = applyPassToFile(t, pass, f)
	}
	return fired
}

// vmRunSource is nullRunSource on the scalar-only bytecode VM, so the
// composed-transform differential also holds under the second engine.
func vmRunSource(t *testing.T, src string, setup func(*interp.Program) error) *interp.Program {
	t.Helper()
	return engineRunSource(t, src, setup, func(p *interp.Program) error {
		e, err := vm.NewScalarEngine(p)
		if err != nil {
			return err
		}
		p.SetEngine(e)
		return nil
	})
}

// columnarRunSource is nullRunSource on the VM as served (vm.Attach), its
// columnar batch tier included — the transformed programs are exactly the
// regular, element-wise shapes the tier targets, so this is where fused
// vector ops meet §IV rewrites.
func columnarRunSource(t *testing.T, src string, setup func(*interp.Program) error) *interp.Program {
	t.Helper()
	return engineRunSource(t, src, setup, vm.Attach)
}

func engineRunSource(t *testing.T, src string, setup func(*interp.Program) error, attach func(*interp.Program) error) *interp.Program {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := attach(p); err != nil {
		t.Fatalf("vm attach: %v", err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		if err := setup(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(interp.NullBackend{}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p
}

// gatherDifferentialSource is a pure-gather kernel: no irregular prefix for
// SplitLoop to peel and no struct layout for AoSToSoA, so in the composed
// pipeline ReorderArrays is the pass that fires on it.
const gatherDifferentialSource = `
float A[8192];
int idx[8192];
float out[8192];
int n;
int main(void) {
    int i;
    n = 8192;
    for (i = 0; i < n; i++) {
        A[i] = i * 0.125;
        idx[i] = (i * 37) % n;
    }
    #pragma offload target(mic:0) in(A : length(n), idx : length(n)) out(out : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        out[i] = A[idx[i]] * 2.0 + 1.0;
    }
    return 0;
}
`

// TestComposedPipelineDifferential applies all three §IV passes to one file
// in a single pipeline over every workload (plus two synthetic kernels) and
// requires the composed program to compute bit-identical outputs under BOTH
// execution engines: the tree-walking interpreter and the bytecode VM. It
// also pins the pass interactions: SplitLoop and ReorderArrays compete for
// the same irregular loops, so whichever runs first claims them, and
// ReorderArrays must refuse the wrapper loops SplitLoop leaves behind
// (hoisting a gather out of the wrapper would read the inner loops'
// induction variables before they are assigned).
func TestComposedPipelineDifferential(t *testing.T) {
	type unit struct {
		name    string
		source  string
		setup   func(*interp.Program) error
		outputs []string
	}
	units := []unit{
		{"aos-synthetic", aosDifferentialSource, nil, []string{"ke"}},
		{"gather-synthetic", gatherDifferentialSource, nil, []string{"out"}},
	}
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		units = append(units, unit{b.Name, b.Source, b.Setup, b.Outputs})
	}
	perUnit := map[string]map[string]int{}
	for _, u := range units {
		u := u
		t.Run(u.name, func(t *testing.T) {
			ref := nullRunSource(t, u.source, u.setup)
			f, err := minic.Parse(u.source)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			fired := composePasses(t, f)
			perUnit[u.name] = fired
			n := 0
			for _, c := range fired {
				n += c
			}
			if n == 0 {
				t.Skip("no §IV pass applicable")
			}
			src := minic.Print(f)
			t.Run("interp", func(t *testing.T) {
				diffOutputs(t, u.outputs, ref, nullRunSource(t, src, u.setup))
			})
			t.Run("vm", func(t *testing.T) {
				diffOutputs(t, u.outputs, ref, vmRunSource(t, src, u.setup))
			})
			t.Run("columnar", func(t *testing.T) {
				diffOutputs(t, u.outputs, ref, columnarRunSource(t, src, u.setup))
			})
		})
	}
	// Composition pins. Each pass must fire somewhere in the composed
	// sweep, on the unit whose shape it owns.
	if perUnit["srad"]["SplitLoop"] == 0 {
		t.Error("SplitLoop did not fire on srad in the composed pipeline")
	}
	if perUnit["gather-synthetic"]["ReorderArrays"] == 0 {
		t.Error("ReorderArrays did not fire on the gather kernel in the composed pipeline")
	}
	if perUnit["aos-synthetic"]["AoSToSoA"] == 0 {
		t.Error("AoSToSoA did not fire on the AoS kernel in the composed pipeline")
	}
	// Interaction pin: after SplitLoop claims srad, ReorderArrays must NOT
	// fire on the split wrapper — its gather indices reference the inner
	// loops' induction variables, which the wrapper body assigns.
	if n := perUnit["srad"]["ReorderArrays"]; n != 0 {
		t.Errorf("ReorderArrays fired %d times on split srad; hoisting from the wrapper is unsound", n)
	}
}
