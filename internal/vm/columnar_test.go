package vm_test

import (
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
)

// columnarModule compiles src and returns the bytecode module (the
// columnar tier is a compile-time property; enabling it at run time does
// not change the chunks).
func columnarModule(t *testing.T, src string) *vm.Module {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	e, err := vm.NewEngine(p)
	if err != nil {
		t.Fatalf("vm compile: %v\nsource:\n%s", err, src)
	}
	return e.Module()
}

// wrapLoop builds a complete program around one loop body over float
// arrays x/y/z (length 64), int arrays ia/ib (length 64), and scalars.
func wrapLoop(loop string) string {
	return `
float x[64]; float y[64]; float z[64];
int ia[64]; int ib[64];
float s; int n; int acc;
float h(float p) { return p + 1.0; }
int main(void) {
    int i;
    s = 0.5; n = 64;
    for (i = 0; i < 64; i++) { x[i] = i * 0.25 + 1.0; y[i] = 64 - i; z[i] = 0.0; ia[i] = i; ib[i] = i * 3 + 1; }
` + loop + `
    printf("%g %g %d\n", y[7], z[63], ia[40]);
    return 0;
}
`
}

// TestColumnarQualification pins which loop shapes the pattern-matcher
// accepts (emit a fused vector op) and which fall back to scalar bytecode.
func TestColumnarQualification(t *testing.T) {
	cases := []struct {
		name string
		loop string
		want int // vector loops in main beyond the 1 from the seeding loop
	}{
		{"saxpy", `for (i = 0; i < 64; i++) { y[i] = 2.5 * x[i] + y[i]; }`, 1},
		{"triad_scalar", `for (i = 0; i < n; i++) { z[i] = x[i] + s * y[i]; }`, 1},
		{"select", `for (i = 0; i < 64; i++) { z[i] = (x[i] > 2.0 ? 1.0 : 0.5) * y[i]; }`, 1},
		{"compound", `for (i = 0; i < 64; i++) { y[i] += x[i] * 0.5; }`, 1},
		{"incdec_site", `for (i = 0; i < 64; i++) { ia[i]++; }`, 1},
		{"temp_decl", `for (i = 0; i < 64; i++) { float t = x[i] * x[i]; z[i] = t + 1.0; }`, 1},
		{"builtin", `for (i = 0; i < 64; i++) { z[i] = sqrt(fabs(x[i])); }`, 1},
		{"iota", `for (i = 0; i < 64; i++) { z[i] = i * 0.5; }`, 1},
		{"int_mod_const", `for (i = 0; i < 64; i++) { ia[i] = ib[i] % 7; }`, 1},
		{"le_bound", `for (i = 0; i <= 60; i++) { z[i] = x[i]; }`, 1},
		{"eager_logic", `for (i = 0; i < 64; i++) { ia[i] = ((x[i] > 1.0) && (s < 60.0)); }`, 1},
		{"site_in_and_rhs", `for (i = 0; i < 64; i++) { ia[i] = ((s > 0.0) && (y[i] < 60.0)); }`, 0},
		{"strided_read", `for (i = 0; i < 32; i++) { z[i] = x[2*i]; }`, 1},
		{"strided_read_offset", `for (i = 0; i < 8; i++) { z[i] = x[8*i + 1] + x[8*i]; }`, 1},
		{"strided_read_negative_offset", `for (i = 1; i < 22; i++) { z[i] = x[3*i - 2]; }`, 1},

		{"reduction", `for (i = 0; i < 64; i++) { s += x[i]; }`, 0},
		{"user_call", `for (i = 0; i < 64; i++) { z[i] = h(x[i]); }`, 0},
		{"if_stmt", `for (i = 0; i < 64; i++) { if (x[i] > 2.0) { z[i] = 1.0; } }`, 0},
		{"gather", `for (i = 0; i < 64; i++) { z[i] = x[ia[i]]; }`, 0},
		{"shifted_index", `for (i = 0; i < 63; i++) { z[i] = x[i + 1]; }`, 0},
		{"nonunit_step", `for (i = 0; i < 64; i += 2) { z[i] = x[i]; }`, 0},
		{"mod_by_var", `for (i = 0; i < 64; i++) { ia[i] = ib[i] % n; }`, 0},
		{"outer_scalar_write", `for (i = 0; i < 64; i++) { acc = ia[i]; }`, 0},
		{"printf_body", `for (i = 0; i < 64; i++) { printf("%g\n", x[i]); }`, 0},
		{"site_in_ternary_arm", `for (i = 0; i < 64; i++) { z[i] = (s > 0.0 ? x[i] : 0.0); }`, 0},
		{"strided_store", `for (i = 0; i < 32; i++) { z[2*i] = x[i]; }`, 0},
		{"nonliteral_stride", `for (i = 0; i < 1; i++) { z[i] = x[n*i]; }`, 0},
		{"strided_read_in_ternary_arm", `for (i = 0; i < 32; i++) { z[i] = (s > 0.0 ? x[2*i] : 0.0); }`, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src := wrapLoop("    " + tc.loop)
			mod := columnarModule(t, src)
			// The array-seeding loop in the harness itself qualifies.
			if got := mod.VecLoopCount() - 1; got != tc.want {
				t.Errorf("got %d vector loops (beyond the seed loop), want %d\nsource:\n%s", got, tc.want, src)
			}
			// Whatever the matcher decided, execution stays bit-identical.
			diffRun(t, src, nil, 0)
		})
	}
}

// TestColumnarEdgeCases sweeps tricky runtime shapes through the 3-way
// differential: ragged tails, faulting tails, fractional and non-constant
// bounds, budget exhaustion inside a batched loop, negative starts.
func TestColumnarEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		budget int64
	}{
		{"tail_fault", wrapLoop(`    for (i = 0; i < 80; i++) { z[i] = x[i % 64] * 0.0 + i; }
    for (i = 0; i < 80; i++) { y[i] = i; }`), 0},
		{"fractional_bound", `
float a[16]; float b[16]; float lim;
int main(void) {
    int i;
    lim = 5.5;
    for (i = 0; i < 16; i++) { a[i] = i; b[i] = 0.0; }
    for (i = 0; i < lim; i++) { b[i] = a[i] * 2.0; }
    printf("%g %g %d\n", b[5], b[6], i);
    return 0;
}`, 0},
		{"budget_mid_loop", wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = x[i] + y[i]; }`), 90},
		{"budget_exact", wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = x[i] + y[i]; }`), 64 + 64 + 2},
		{"negative_start", `
float a[8];
int main(void) {
    int i;
    for (i = -3; i < 4; i++) { a[i + 4] = 0.0; }
    printf("%d\n", i);
    return 0;
}`, 0},
		{"nan_bound", `
float a[8]; float lim;
int main(void) {
    int i;
    lim = sqrt(-1.0);
    for (i = 0; i < 8; i++) { a[i] = i; }
    for (i = 0; i < lim; i++) { a[i] = 1.0; }
    printf("%g %d\n", a[0], i);
    return 0;
}`, 0},
		{"parallel_vec", wrapLoop(`    #pragma omp parallel for
    for (i = 0; i < 64; i++) { z[i] = x[i] * y[i]; }`), 0},
		{"offload_vec", wrapLoop(`    #pragma offload target(mic:0) in(x, y : length(64)) out(z : length(64))
    #pragma omp parallel for
    for (i = 0; i < 64; i++) { z[i] = x[i] * y[i] + s; }`), 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			diffRun(t, tc.src, nil, tc.budget)
		})
	}
}

// TestColumnarPeepholeInteraction: a non-vectorized outer loop that
// contains a fused vector op still gets its scalar superinstructions —
// the vector op neither blocks fusion around it nor gets absorbed.
func TestColumnarPeepholeInteraction(t *testing.T) {
	src := `
float a[32]; float b[32]; float s;
int main(void) {
    int it; int i;
    for (i = 0; i < 32; i++) { a[i] = i * 0.5; b[i] = 0.0; }
    for (it = 0; it < 4; it++) {
        if (s > 100.0) { s = 0.0; }
        for (i = 0; i < 32; i++) { b[i] = a[i] * 2.0 + b[i]; }
        s = s + b[31];
    }
    printf("%g\n", s);
    return 0;
}`
	mod := columnarModule(t, src)
	main := mod.Funcs[mod.Main]
	text := vm.Disassemble(main)
	if !strings.Contains(text, "VecLoop") {
		t.Fatalf("inner loop did not lower to a vector op:\n%s", text)
	}
	if !strings.Contains(text, "IncJmp") {
		t.Errorf("superinstruction fusion (IncJmp latch) did not fire alongside the vector op:\n%s", text)
	}
	diffRun(t, src, nil, 0)
}

// deepCopyChunk clones a chunk including its vector-loop descriptors so
// corruption tests cannot alias the compiled module.
func deepCopyChunk(ch *vm.Chunk) *vm.Chunk {
	cp := *ch
	cp.Code = append([]vm.Instr(nil), ch.Code...)
	cp.VecLoops = make([]*vm.VecLoopDesc, len(ch.VecLoops))
	for i, d := range ch.VecLoops {
		dd := *d
		dd.Upper = append([]vm.Instr(nil), d.Upper...)
		dd.Imms = append([]vm.VecImm(nil), d.Imms...)
		dd.Sites = append([]vm.VecSite(nil), d.Sites...)
		dd.Prog = append([]vm.ColIns(nil), d.Prog...)
		cp.VecLoops[i] = &dd
	}
	return &cp
}

// TestVerifierRejectsVecLoopCorruption: the descriptor validator is not
// vacuous — every invariant the batch engine relies on trips it.
func TestVerifierRejectsVecLoopCorruption(t *testing.T) {
	mod := columnarModule(t, wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = s * x[i] + y[i]; }`))
	ch := mod.Funcs[mod.Main]
	if len(ch.VecLoops) == 0 {
		t.Fatal("no vector loop to corrupt")
	}
	verify := func(mut func(d *vm.VecLoopDesc)) error {
		cp := deepCopyChunk(ch)
		mut(cp.VecLoops[len(cp.VecLoops)-1])
		return vm.VerifyChunk(cp, len(mod.Globals), len(mod.Funcs))
	}
	d0 := ch.VecLoops[len(ch.VecLoops)-1]
	if len(d0.Imms) == 0 || len(d0.Prog) == 0 || len(d0.Sites) == 0 {
		t.Fatalf("unexpected descriptor shape: %+v", d0)
	}

	if err := verify(func(d *vm.VecLoopDesc) { d.Prog[0].Kind = 99 }); err == nil {
		t.Error("unknown column op not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) {
		for i := range d.Prog {
			if d.Prog[i].Site >= 0 {
				d.Prog[i].Site = 100
				return
			}
		}
	}); err == nil {
		t.Error("out-of-range site index not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) {
		for i := range d.Prog {
			if d.Prog[i].Dst >= 0 {
				d.Prog[i].Dst = d.NRegs + 7
				return
			}
		}
	}); err == nil {
		t.Error("out-of-range destination register not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.IotaReg = d.NRegs }); err == nil {
		t.Error("out-of-range iota register not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.GuardSlot = -1 }); err == nil {
		t.Error("negative guard slot not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.IdxSlot, d.IdxG = -1, -1 }); err == nil {
		t.Error("unbound induction variable not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Imms = append(d.Imms, d.Imms[0]) }); err == nil {
		t.Error("duplicate immediate destination not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Imms[0].A = 1 << 20 }); err == nil {
		t.Error("out-of-range immediate source not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Upper = nil }); err == nil {
		t.Error("missing bound block not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Upper[0].Op = vm.OpJmp }); err == nil {
		t.Error("jump inside a bound block not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Sites[0].A = 1 << 20 }); err == nil {
		t.Error("out-of-range site binding not rejected")
	}
	// And the code-side reference: an OpVecLoop naming a missing
	// descriptor must be rejected too.
	cp := deepCopyChunk(ch)
	cp.VecLoops = cp.VecLoops[:0]
	if err := vm.VerifyChunk(cp, len(mod.Globals), len(mod.Funcs)); err == nil {
		t.Error("dangling OpVecLoop descriptor index not rejected")
	}
}

// TestVerifierRejectsStridedSiteCorruption: a gather must name a strided
// site, a load or store a unit one, and a site's stride must lie in
// [1, 2^20] and its offset in ±2^20.
func TestVerifierRejectsStridedSiteCorruption(t *testing.T) {
	mod := columnarModule(t, wrapLoop(`    for (i = 0; i < 32; i++) { z[i] = s * x[2*i + 1] + y[i]; }`))
	ch := mod.Funcs[mod.Main]
	d0 := ch.VecLoops[len(ch.VecLoops)-1]
	// Sites register in evaluation order: x[2*i + 1], y[i], then z[i].
	if len(d0.Sites) != 3 || d0.Sites[0].Stride != 2 || d0.Sites[0].Off != 1 || d0.Sites[1].Stride != 1 {
		t.Fatalf("unexpected sites: %+v", d0.Sites)
	}
	if err := vm.VerifyChunk(ch, len(mod.Globals), len(mod.Funcs)); err != nil {
		t.Fatalf("uncorrupted descriptor rejected: %v", err)
	}
	const strided, unit, stored = 0, 1, 2
	// retarget moves the first instruction naming site from onto site to.
	retarget := func(from, to int32) func(d *vm.VecLoopDesc) {
		return func(d *vm.VecLoopDesc) {
			for i := range d.Prog {
				if d.Prog[i].Site == from {
					d.Prog[i].Site = to
					return
				}
			}
			t.Fatalf("no instruction names site %d", from)
		}
	}
	for _, tc := range []struct {
		name string
		mut  func(d *vm.VecLoopDesc)
	}{
		{"gather on a unit site", retarget(strided, unit)},
		{"load on a strided site", retarget(unit, strided)},
		{"store on a strided site", retarget(stored, strided)},
		{"zero stride", func(d *vm.VecLoopDesc) { d.Sites[strided].Stride = 0 }},
		{"negative stride", func(d *vm.VecLoopDesc) { d.Sites[unit].Stride = -1 }},
		{"stride above 2^20", func(d *vm.VecLoopDesc) { d.Sites[strided].Stride = 1<<20 + 1 }},
		{"offset above 2^20", func(d *vm.VecLoopDesc) { d.Sites[strided].Off = 1<<20 + 1 }},
		{"offset below -2^20", func(d *vm.VecLoopDesc) { d.Sites[strided].Off = -1<<20 - 1 }},
	} {
		cp := deepCopyChunk(ch)
		tc.mut(cp.VecLoops[len(cp.VecLoops)-1])
		if err := vm.VerifyChunk(cp, len(mod.Globals), len(mod.Funcs)); err == nil {
			t.Errorf("%s not rejected", tc.name)
		}
	}
}

// stridedCases are loops whose reads are strided, a[c*i + o]: the tier
// gathers them, and each case holds one rule of that gather to the
// scalar loop. They also seed FuzzVMDiff and FuzzColumnarDiff.
var stridedCases = []struct {
	name, src string
}{
	// b[i] = a[2*i] runs past a's end at i = 10: the batch covers i < 10
	// and the scalar loop faults at i = 10 with its own message.
	{"read_past_end", `
float a[20]; float b[16];
int main(void) {
    int i;
    for (i = 0; i < 20; i++) { a[i] = i * 0.5; }
    for (i = 0; i < 16; i++) { b[i] = a[2*i] + 1.0; }
    printf("%g\n", b[9]);
    return 0;
}`},
	// The first index, 2*0 - 1, is negative: the scalar loop faults at once.
	{"negative_first_index", `
float a[20]; float b[16];
int main(void) {
    int i;
    for (i = 0; i < 20; i++) { a[i] = i * 0.5; }
    for (i = 0; i < 8; i++) { b[i] = a[2*i - 1]; }
    return 0;
}`},
	// A gathered array that is also stored stays scalar. In the second
	// and third loops iterations read what earlier ones wrote: i = 6
	// reads a[4], and a[1*i - 1] is a running sum.
	{"self_alias", `
float a[64];
int main(void) {
    int i;
    for (i = 0; i < 64; i++) { a[i] = i * 0.5; }
    for (i = 0; i < 32; i++) { a[i] = a[2*i]; }
    for (i = 4; i < 32; i++) { a[i] = a[2*i - 8] + 1.0; }
    for (i = 1; i < 64; i++) { a[i] = a[1*i - 1] + a[i]; }
    printf("%g %g %g\n", a[6], a[7], a[63]);
    return 0;
}`},
	// The same aliasing through pointers, a local and a global one.
	{"pointer_alias", `
float a[64];
float *q;
int main(void) {
    int i;
    float *p;
    for (i = 0; i < 64; i++) { a[i] = i * 0.5; }
    p = a;
    for (i = 4; i < 32; i++) { p[i] = a[2*i - 8] + 1.0; }
    q = a;
    for (i = 1; i < 64; i++) { q[i] = a[1*i - 1] * 0.5 + 1.0; }
    printf("%g %g %g\n", a[6], a[7], a[63]);
    return 0;
}`},
	// Integer elements: the gather feeds int arithmetic and a truncating
	// int store, and a read-only strided array beside a stored one.
	{"int_arrays", `
int ia[64]; int ib[21];
int main(void) {
    int i;
    for (i = 0; i < 64; i++) { ia[i] = (i * 7) % 11; }
    for (i = 0; i < 21; i++) { ib[i] = ia[3*i + 1] * 3 / 2 + ia[i]; }
    printf("%d %d %d\n", ib[0], ib[10], ib[20]);
    return 0;
}`},
	// Strided reads in offload kernels, where each device buffer's touched
	// range is part of the backend trace, and one kernel that overruns.
	{"offload_kernel", `
float x[64]; float y[32]; float z[16];
int main(void) {
    int i;
    for (i = 0; i < 64; i++) { x[i] = i * 0.25 + 1.0; }
    #pragma offload target(mic:0) in(x : length(64)) out(y : length(32))
    #pragma omp parallel for
    for (i = 0; i < 32; i++) { y[i] = x[2*i] * x[2*i + 1]; }
    #pragma offload target(mic:0) in(x : length(64)) out(z : length(16))
    #pragma omp parallel for
    for (i = 0; i < 15; i++) { z[i] = sqrt(x[4*i + 3]); }
    #pragma offload target(mic:0) in(x : length(64)) out(z : length(16))
    #pragma omp parallel for
    for (i = 0; i < 16; i++) { z[i] = x[5*i]; }
    printf("%g %g\n", y[31], z[14]);
    return 0;
}`},
}

// TestVMDiffStridedReads holds the strided gather to the tree-walker and
// the scalar-only VM, bit for bit: outputs, globals, faults, Work and
// device-touch ranges.
func TestVMDiffStridedReads(t *testing.T) {
	for _, tc := range stridedCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			diffRun(t, tc.src, nil, 0)
		})
	}
}
