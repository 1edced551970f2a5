package vm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/pass"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// TestInstrSize pins the instruction width: the folded charge (Instr.W)
// rides in the padding after Op, so it costs no memory per instruction.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(vm.Instr{}); got != 12 {
		t.Fatalf("Instr is %d bytes, want 12", got)
	}
}

// chargeCases are programs whose blocks carry their Work charge on the
// branch that ends them, each diffed against the tree-walker. budget > 0
// sets the loop budget. They also seed FuzzVMDiff.
var chargeCases = []struct {
	name   string
	budget int64
	src    string
}{
	// The loop body, post statement and latch form one block whose charge
	// rides the latch; the store faults at i = 8 before the latch runs,
	// on the host and in a kernel.
	{name: "fault_after_charge", src: `
float a[8]; float b[8]; float s;
int main(void) {
    int i;
    for (i = 0; i < 8; i++) { b[i] = i * 0.5; }
    for (i = 0; i < 12; i++) { s = s + 1.0; a[i] = s * 2.0; }
    return 0;
}`},
	{name: "kernel_fault_after_charge", src: `
float a[8]; float b[8];
int main(void) {
    int i;
    for (i = 0; i < 8; i++) { a[i] = i * 0.5; }
    #pragma offload target(mic:0) in(a : length(8)) out(b : length(8))
    #pragma omp parallel for
    for (i = 0; i < 10; i++) { b[i] = a[i] + 1.0; }
    return 0;
}`},
	// The budget runs out inside loops whose charges ride their branches.
	{name: "budget_in_folded_loop", budget: 37, src: `
float s; int n;
int main(void) {
    int i;
    for (i = 0; i < 20; i++) { s = s + i * 0.5; }
    while (n < 100) { n = n + 1; s = s - 0.25; }
    return 0;
}`},
	// The if's false edge lands on the while's back edge, a branch that is
	// a jump target: the if body's charge must stay off it, or every odd
	// iteration would pay the even iterations' charge.
	{name: "branch_is_target", src: `
float s; int n;
int main(void) {
    int i;
    i = 0;
    while (i < 10) {
        i = i + 1;
        if (i % 2 == 0) { s = s + 1.5; }
    }
    for (i = 0; i < 6; i++) {
        if (i > 2) { n = n + i; } else { s = s * 2.0; }
    }
    printf("%g %d\n", s, n);
    return 0;
}`},
	// Short-circuit chains: every && and || is a conditional branch inside
	// an expression, and several of them are jump targets.
	{name: "and_or_chains", src: `
float a[16]; float s; int n;
int main(void) {
    int i;
    for (i = 0; i < 16; i++) { a[i] = i % 5; }
    for (i = 0; i < 16; i++) {
        if (a[i] > 1.0 && a[i] < 4.0 || i == 15) { s = s + a[i]; }
        if (!(a[i] > 2.0) || (i > 3 && a[i] != 0.0)) { n = n + 1; }
        n = n + (i > 4 && a[i] > 0.0);
    }
    while (n > 0 && s > 0.0 || n > 40) { n = n - 1; s = s - 0.5; }
    printf("%g %d\n", s, n);
    return 0;
}`},
	// A block holding OpVecLoop: the statements ahead of a qualifying loop
	// keep their OpWork, and the batch charges the bucket itself.
	{name: "vecloop_block", src: `
float a[64]; float b[64]; float s;
int main(void) {
    int i; int it;
    for (i = 0; i < 64; i++) { a[i] = i * 0.25; }
    for (it = 0; it < 3; it++) {
        s = s + 1.0;
        for (i = 0; i < 61; i++) { b[i] = a[i] * s + 1.0; }
        if (it > 0 && s > 1.5) { s = s + b[60]; }
    }
    printf("%g %g\n", s, b[33]);
    return 0;
}`},
}

// TestVMDiffFoldedCharges holds branch-carried charges to the tree-walker:
// outputs, Work at every flush, faults and budget exhaustion.
func TestVMDiffFoldedCharges(t *testing.T) {
	for _, tc := range chargeCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			diffRun(t, tc.src, nil, tc.budget)
		})
	}
}

// touchCases stress the per-global touch slots: every device access inside
// a region is recorded by its global's slot, and a slot whose global
// reaches a new buffer mid-region is rebound to it and keeps one range for
// the buffer name. They also seed FuzzVMDiff.
var touchCases = []struct {
	name, src string
	vec       bool // the region runs a columnar batch
}{
	// A global pointer aimed at a global array, both read in one kernel
	// (on the device, p has a buffer of its own named p).
	{name: "pointer_aliases_array", src: `
float a[16]; float b[16];
float *p;
int main(void) {
    int i;
    for (i = 0; i < 16; i++) { a[i] = i * 0.5; }
    p = a;
    #pragma offload target(mic:0) in(a : length(16)) in(p : length(16)) out(b : length(16))
    #pragma omp parallel for
    for (i = 0; i < 8; i++) { b[i] = a[i + 3] + p[2 * i]; }
    printf("%g %g\n", b[0], b[7]);
    return 0;
}`},
	// A transfer inside the region reallocates a's buffer: the kernel
	// touches a[0..3] in the old buffer and a[8..15] in the new one, and
	// the region reports one range for a.
	{name: "transfer_rebinds_buffer", src: `
float a[16]; float c[16]; float b[16];
int main(void) {
    int i;
    for (i = 0; i < 16; i++) { a[i] = i * 0.5; c[i] = 1.0 + i; }
    #pragma offload target(mic:0) in(a : length(16)) out(b : length(16))
    for (i = 0; i < 16; i++) {
        if (i == 8) {
            #pragma offload_transfer target(mic:0) in(c : length(16) into(a) alloc_if(1) free_if(0))
        }
        if (i < 8) { b[i] = a[i % 4]; } else { b[i] = a[i]; }
    }
    printf("%g %g\n", b[3], b[12]);
    return 0;
}`},
	// One region gathers x on the columnar tier and reads it scalar-side.
	{name: "gather_and_scalar_access", vec: true, src: `
float x[64]; float y[64];
int main(void) {
    int i; int j;
    for (i = 0; i < 64; i++) { x[i] = i * 0.25 + 1.0; }
    #pragma offload target(mic:0) in(x : length(64)) out(y : length(64))
    for (j = 0; j < 2; j++) {
        for (i = 0; i < 16; i++) { y[i] = x[2*i + 1] * 2.0; }
        y[40 + j] = x[60 + j] + y[j];
    }
    printf("%g %g\n", y[15], y[41]);
    return 0;
}`},
}

// TestVMDiffTouchSlots holds the touch slots to the tree-walker's
// name-keyed ranges, bit for bit, in every backend event.
func TestVMDiffTouchSlots(t *testing.T) {
	for _, tc := range touchCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if tc.vec && columnarModule(t, tc.src).VecLoopCount() == 0 {
				t.Fatal("no loop lowered to the columnar tier")
			}
			diffRun(t, tc.src, nil, 0)
		})
	}
}

// TestWorkChargesRideBranches checks the fold statically on every registry
// workload, as written and as its tuned plan (BENCH_tune.json): no OpWork
// survives in a block that ends on a branch, and bfs's main chunk keeps
// exactly the six whose blocks fall through into a loop head or join.
func TestWorkChargesRideBranches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_tune.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tuned struct {
		Workloads []struct {
			Name, Spec string
			Blocks     int
		}
	}
	if err := json.Unmarshal(data, &tuned); err != nil {
		t.Fatal(err)
	}
	plans := map[string]string{}
	for _, b := range workloads.All() {
		if !b.SharedMem {
			plans[b.Name+"/naive"] = b.Source
		}
	}
	for _, w := range tuned.Workloads {
		if w.Spec == "" {
			continue
		}
		b, err := workloads.Get(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.OptimizeSpec(b.Source, w.Spec,
			pass.Config{Blocks: w.Blocks, ReduceMemory: true, Persistent: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plans[w.Name+"/tuned"] = res.Source()
	}
	if len(plans) < 15 {
		t.Fatalf("only %d plans", len(plans))
	}
	for name, src := range plans {
		p, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mod, err := vm.CompileProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ch := range mod.Funcs {
			if ip := unfoldedCharge(ch.Code); ip >= 0 {
				t.Errorf("%s %s: OpWork at %d survives in a block that ends on a branch:\n%s",
					name, ch.Name, ip, vm.Disassemble(ch))
			}
			if name == "bfs/naive" && ch.Name == "main" {
				if n := strings.Count(vm.Disassemble(ch), ": Work "); n != 6 {
					t.Errorf("bfs main keeps %d OpWork, want 6", n)
				}
			}
		}
	}
}

// unfoldedCharge returns the index of an OpWork whose block ends on a
// branch, or -1. A block starts at a jump target or after an op that
// flushes or switches the bucket (or branches), and ends before the next.
func unfoldedCharge(code []vm.Instr) int {
	target := make([]bool, len(code)+1)
	for _, in := range code {
		if isBranchOp(in.Op) {
			target[in.A] = true
		}
	}
	work := -1
	for ip, in := range code {
		if target[ip] {
			work = -1
		}
		switch {
		case in.Op == vm.OpWork:
			if work < 0 {
				work = ip
			}
		case isBranchOp(in.Op):
			if work >= 0 {
				return work
			}
			work = -1
		case in.Op == vm.OpCall, in.Op == vm.OpParEnter, in.Op == vm.OpParExit,
			in.Op == vm.OpOffEnter, in.Op == vm.OpOffExit, in.Op == vm.OpTransfer,
			in.Op == vm.OpWait, in.Op == vm.OpRet, in.Op == vm.OpRetV,
			in.Op == vm.OpRetL, in.Op == vm.OpVecLoop:
			work = -1
		}
	}
	return -1
}

func isBranchOp(op vm.Op) bool {
	switch op {
	case vm.OpJmp, vm.OpJz, vm.OpJnz, vm.OpCmpJmp, vm.OpCmpJmpC, vm.OpCmpJmpG, vm.OpIncJmp:
		return true
	}
	return false
}

// TestPooledMachinesHoldNoReferences runs programs that finish, print,
// run columnar batches and fault inside an offload region, then checks that the machines they
// returned to the free list pin no array, program or code.
func TestPooledMachinesHoldNoReferences(t *testing.T) {
	for _, src := range []string{touchCases[0].src, chargeCases[1].src, stridedCases[5].src} {
		p, err := interp.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Attach(p); err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			execProgram(p, nil, 0)
		}
	}
	n, err := vm.PooledMachines()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no machine returned to the free list")
	}
}
