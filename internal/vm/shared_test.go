package vm_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// sharedFaults are programs that fault mid-run, after they have written
// host arrays, device buffers and printf output, so a shared module's
// runs must report the same *RuntimeError at the same position.
var sharedFaults = map[string]string{
	"host-bounds": `
float a[8];
int main(void) {
    int i;
    printf("start\n");
    for (i = 0; i < 12; i++) {
        a[i] = i * 1.5;
    }
    return 0;
}
`,
	"device-missing": `
float a[16];
float b[16];
int main(void) {
    int i;
    for (i = 0; i < 16; i++) {
        a[i] = i + 0.5;
    }
    #pragma offload target(mic:0) in(a : length(16)) out(b : length(16))
    #pragma omp parallel for
    for (i = 0; i < 16; i++) {
        b[i] = a[i] * 2.0;
    }
    #pragma offload target(mic:0) out(a : length(16))
    #pragma omp parallel for
    for (i = 0; i < 16; i++) {
        a[i] = b[i] + 1.0;
    }
    return 0;
}
`,
	"div-zero": `
int d;
float x;
int main(void) {
    x = 3.0;
    printf("%g\n", x);
    x = 7 / d;
    return 0;
}
`,
}

// sharedCase is one source the shared-module test runs.
type sharedCase struct {
	name   string
	src    string
	setup  func(*interp.Program) error
	budget int64
	faults bool // the run must end in a *interp.RuntimeError
}

// sharedCases lists the registry workloads' offload sources, generated
// random programs, and the faulting programs above. The differential
// sweeps in vmdiff_test.go and gen_test.go cover the engines' semantics
// at length; these cases cover sharing, so the set stays small enough to
// run under -race on every push.
func sharedCases() []sharedCase {
	var cases []sharedCase
	for _, b := range workloads.All() {
		if !b.SharedMem {
			cases = append(cases, sharedCase{name: b.Name, src: b.Source, setup: b.Setup})
		}
	}
	for seed := 0; seed < 24; seed++ {
		cases = append(cases, sharedCase{name: fmt.Sprintf("gen/seed%03d", seed), src: genProgram(int64(seed)), budget: 2_000_000})
	}
	for name, src := range sharedFaults {
		cases = append(cases, sharedCase{name: "fault/" + name, src: src, faults: true})
	}
	return cases
}

// TestSharedModule compiles each program once for the VM and runs the one
// read-only module on fresh state-only instances (interp.NewInstance):
// one, then several at once, so concurrent runs also share the columnar
// tier's pooled column scratch.
// Every run must match the tree-walker bit for bit — outputs, scalars,
// printf, every backend event with its Work, and the *RuntimeError
// message and position — so no run can see another's state. Run it
// under -race to check that concurrent runs share nothing mutable.
func TestSharedModule(t *testing.T) {
	const sequential, concurrent = 1, 2
	for _, c := range sharedCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ref := execSource(t, c.src, c.setup, vm.ExecInterp, c.budget)
			var fault *interp.RuntimeError
			if c.faults && !errors.As(ref.err, &fault) {
				t.Fatalf("tree-walker did not fault: %v", ref.err)
			}
			p, err := interp.CompileWith(c.src, vm.Factory)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if p.Engine() == nil {
				t.Fatalf("vm declined the program: %v", p.EngineErr())
			}
			layout, eng := p.Layout(), p.Engine()
			run := func() *runResult {
				return execProgram(interp.NewInstance(layout, eng), c.setup, c.budget)
			}
			for k := 0; k < sequential; k++ {
				compareShared(t, ref, run(), fmt.Sprintf("instance %d", k))
			}
			got := make([]*runResult, concurrent)
			var wg sync.WaitGroup
			for k := range got {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					got[k] = run()
				}(k)
			}
			wg.Wait()
			for k, g := range got {
				compareShared(t, ref, g, fmt.Sprintf("concurrent instance %d", k))
			}
		})
	}
}

// compareShared is compareRunsAs plus the error's type: a fault must be a
// *interp.RuntimeError with the tree-walker's position and message.
func compareShared(t *testing.T, ref, got *runResult, label string) {
	t.Helper()
	compareRunsAs(t, ref, got, label)
	var want, have *interp.RuntimeError
	if errors.As(ref.err, &want) {
		if !errors.As(got.err, &have) {
			t.Fatalf("%s: error %v is not a *interp.RuntimeError", label, got.err)
		}
		if *want != *have {
			t.Fatalf("%s: fault %+v, tree-walker %+v", label, *have, *want)
		}
	}
}

// TestSharedModuleRejectsOtherLayout pins the guard that keeps a module
// from running on storage it was not compiled for.
func TestSharedModuleRejectsOtherLayout(t *testing.T) {
	src := sharedFaults["div-zero"]
	a, err := interp.CompileWith(src, vm.Factory)
	if err != nil {
		t.Fatal(err)
	}
	b, err := interp.CompileWith(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := a.Engine().Run(b, interp.NullBackend{}); err == nil {
		t.Fatal("module ran on a program with a different layout")
	}
	inst := interp.NewInstance(b.Layout(), nil)
	if err := inst.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(interp.NullBackend{}); err == nil {
		t.Fatal("an instance without an engine ran")
	}
}
