package vm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// progGen produces random — but always well-formed — MiniC programs for
// the differential sweep and the property tests. Everything derives from
// the seeded *rand.Rand, so a failing seed reproduces exactly.
type progGen struct {
	r  *rand.Rand
	sb strings.Builder

	floatVars []string
	intVars   []string
	farrs     []genArr
	iarrs     []genArr
	loopVars  []string // currently in-scope loop counters (in-bounds, >= 0)
	helpers   int
}

type genArr struct {
	name string
	n    int
}

func (g *progGen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

func (g *progGen) flit() string {
	return fmt.Sprintf("%d.%02d", g.r.Intn(8), g.r.Intn(100))
}

// fexpr emits a float-context expression of bounded depth.
func (g *progGen) fexpr(d int) string {
	if d <= 0 {
		switch g.r.Intn(4) {
		case 0:
			return g.flit()
		case 1:
			return g.pick(g.floatVars)
		case 2:
			a := g.farrs[g.r.Intn(len(g.farrs))]
			return a.name + "[" + g.index(a.n) + "]"
		default:
			return g.pick(g.intVars)
		}
	}
	switch g.r.Intn(8) {
	case 0, 1, 2:
		op := g.pick([]string{"+", "-", "*", "/"})
		return "(" + g.fexpr(d-1) + " " + op + " " + g.fexpr(d-1) + ")"
	case 3:
		return "(-" + g.fexpr(d-1) + ")"
	case 4:
		b := g.pick([]string{"sqrt", "fabs", "exp", "floor", "ceil"})
		return b + "(fabs(" + g.fexpr(d-1) + "))"
	case 5:
		b := g.pick([]string{"fmin", "fmax", "pow"})
		return b + "(fabs(" + g.fexpr(d-1) + "), " + g.flit() + ")"
	case 6:
		return "(" + g.cond(d-1) + " ? " + g.fexpr(d-1) + " : " + g.fexpr(d-1) + ")"
	default:
		if g.helpers > 0 {
			h := g.r.Intn(g.helpers)
			return fmt.Sprintf("h%d(%s, %s)", h, g.fexpr(d-1), g.fexpr(d-1))
		}
		return g.flit()
	}
}

// iexpr emits an int-context expression of bounded depth.
func (g *progGen) iexpr(d int) string {
	if d <= 0 {
		switch g.r.Intn(4) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(20))
		case 1:
			return g.pick(g.intVars)
		case 2:
			a := g.iarrs[g.r.Intn(len(g.iarrs))]
			return a.name + "[" + g.index(a.n) + "]"
		default:
			if len(g.loopVars) > 0 {
				return g.pick(g.loopVars)
			}
			return fmt.Sprintf("%d", 1+g.r.Intn(9))
		}
	}
	switch g.r.Intn(7) {
	case 0, 1:
		op := g.pick([]string{"+", "-", "*"})
		return "(" + g.iexpr(d-1) + " " + op + " " + g.iexpr(d-1) + ")"
	case 2:
		// Division and modulus; the denominator is occasionally zero on
		// purpose — fault parity is part of the contract.
		op := g.pick([]string{"/", "%"})
		den := g.iexpr(d - 1)
		if g.r.Intn(8) != 0 {
			den = "(" + den + " % 7 + 8)"
		}
		return "(" + g.iexpr(d-1) + " " + op + " " + den + ")"
	case 3:
		op := g.pick([]string{"<", "<=", ">", ">=", "==", "!="})
		return "(" + g.iexpr(d-1) + " " + op + " " + g.iexpr(d-1) + ")"
	case 4:
		op := g.pick([]string{"&&", "||"})
		return "(" + g.iexpr(d-1) + " " + op + " " + g.iexpr(d-1) + ")"
	case 5:
		return "(" + g.iexpr(d-1) + " " + g.pick([]string{"<<", ">>"}) + " " + fmt.Sprintf("%d", g.r.Intn(4)) + ")"
	default:
		return "(" + g.cond(d-1) + " ? " + g.iexpr(d-1) + " : " + g.iexpr(d-1) + ")"
	}
}

// index emits an array index for an array of length n: usually provably
// in-bounds, occasionally not (both engines must fault identically).
func (g *progGen) index(n int) string {
	if len(g.loopVars) > 0 && g.r.Intn(3) != 0 {
		v := g.pick(g.loopVars)
		if g.r.Intn(10) == 0 {
			return fmt.Sprintf("(%s + %d)", v, g.r.Intn(4))
		}
		return fmt.Sprintf("((%s * %d + %d) %% %d)", v, 1+g.r.Intn(5), g.r.Intn(n), n)
	}
	return fmt.Sprintf("%d", g.r.Intn(n))
}

func (g *progGen) cond(d int) string {
	if d <= 0 {
		return "(" + g.iexpr(0) + " < " + g.iexpr(0) + ")"
	}
	switch g.r.Intn(3) {
	case 0:
		return "(" + g.fexpr(d-1) + " " + g.pick([]string{"<", "<=", ">", ">="}) + " " + g.fexpr(d-1) + ")"
	case 1:
		return "(" + g.iexpr(d-1) + " " + g.pick([]string{"==", "!="}) + " " + g.iexpr(d-1) + ")"
	default:
		return "(" + g.cond(d-1) + " " + g.pick([]string{"&&", "||"}) + " " + g.cond(d-1) + ")"
	}
}

func (g *progGen) line(depth int, format string, args ...interface{}) {
	g.sb.WriteString(strings.Repeat("    ", depth))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteString("\n")
}

// stmt emits one statement at the given indent depth.
func (g *progGen) stmt(depth, d int) {
	switch g.r.Intn(10) {
	case 0:
		g.line(depth, "%s = %s;", g.pick(g.floatVars), g.fexpr(d))
	case 1:
		g.line(depth, "%s = %s;", g.pick(g.intVars), g.iexpr(d))
	case 2:
		a := g.farrs[g.r.Intn(len(g.farrs))]
		g.line(depth, "%s[%s] = %s;", a.name, g.index(a.n), g.fexpr(d))
	case 3:
		op := g.pick([]string{"+=", "-=", "*="})
		if g.r.Intn(2) == 0 {
			a := g.farrs[g.r.Intn(len(g.farrs))]
			g.line(depth, "%s[%s] %s %s;", a.name, g.index(a.n), op, g.fexpr(d-1))
		} else {
			g.line(depth, "%s %s %s;", g.pick(g.floatVars), op, g.fexpr(d-1))
		}
	case 4:
		g.line(depth, "%s%s;", g.pick(g.intVars), g.pick([]string{"++", "--"}))
	case 5:
		g.line(depth, "printf(\"%%d %%g\\n\", %s, %s);", g.iexpr(d-1), g.fexpr(d-1))
	case 6:
		g.line(depth, "if %s {", g.cond(d))
		g.stmt(depth+1, d-1)
		if g.r.Intn(2) == 0 {
			g.line(depth, "} else {")
			g.stmt(depth+1, d-1)
		}
		g.line(depth, "}")
	case 7:
		if g.r.Intn(3) == 0 {
			g.vecLoop(depth, d)
		} else {
			g.forLoop(depth, d, false)
		}
	case 8:
		v := g.pick(g.intVars)
		g.line(depth, "%s = 0;", v)
		g.line(depth, "while (%s < %d) {", v, 2+g.r.Intn(6))
		g.stmt(depth+1, d-1)
		g.line(depth+1, "%s = %s + 1;", v, v)
		g.line(depth, "}")
	default:
		g.offloadLoop(depth, d)
	}
}

// forLoop emits a bounded counting loop over a fresh counter, optionally
// as an omp parallel-for.
func (g *progGen) forLoop(depth, d int, omp bool) {
	if len(g.loopVars) >= 3 {
		g.line(depth, "%s = %s;", g.pick(g.floatVars), g.fexpr(d))
		return
	}
	v := []string{"i", "j", "k"}[len(g.loopVars)]
	n := 4 + g.r.Intn(28)
	if omp {
		g.line(depth, "#pragma omp parallel for")
	}
	g.line(depth, "for (%s = 0; %s < %d; %s++) {", v, v, n, v)
	g.loopVars = append(g.loopVars, v)
	g.stmt(depth+1, d-1)
	if g.r.Intn(3) == 0 {
		g.stmt(depth+1, d-1)
	}
	g.loopVars = g.loopVars[:len(g.loopVars)-1]
	g.line(depth, "}")
}

// vexpr emits an element-wise expression over the loop counter v: array
// reads a[v], the counter itself, scalars, literals, and pure arithmetic
// — the shapes the columnar pattern-matcher accepts, so generated
// programs routinely exercise the batch tier.
func (g *progGen) vexpr(v string, arrs []genArr, d int) string {
	if d <= 0 {
		switch g.r.Intn(4) {
		case 0:
			return g.flit()
		case 1:
			return g.pick(g.floatVars)
		case 2:
			return v
		default:
			return arrs[g.r.Intn(len(arrs))].name + "[" + v + "]"
		}
	}
	switch g.r.Intn(6) {
	case 0, 1:
		op := g.pick([]string{"+", "-", "*"})
		return "(" + g.vexpr(v, arrs, d-1) + " " + op + " " + g.vexpr(v, arrs, d-1) + ")"
	case 2:
		return "(" + g.vexpr(v, arrs, d-1) + " / (" + g.flit() + " + 1.0))"
	case 3:
		b := g.pick([]string{"sqrt", "fabs", "exp"})
		return b + "(fabs(" + g.vexpr(v, arrs, d-1) + "))"
	case 4:
		b := g.pick([]string{"fmin", "fmax"})
		return b + "(" + g.vexpr(v, arrs, d-1) + ", " + g.flit() + ")"
	default:
		// Eager select: sites may appear in the condition but the arms
		// must stay pure for the loop to qualify.
		return "((" + g.vexpr(v, arrs, d-1) + " > " + g.flit() + ") ? " + g.flit() + " : " + g.flit() + ")"
	}
}

// vecLoop emits a loop shaped to pass the columnar qualifier: unit step,
// element-wise body over a[v] sites, occasionally a ragged bound or a
// compound store so tails and read-modify-write batches get coverage.
// Half the loops also add a strided read a[c*v + o], the regularization
// gather shape, with the bound kept in range but for an occasional
// overrun that must fault like the scalar loop.
func (g *progGen) vecLoop(depth, d int) {
	if len(g.loopVars) >= 3 {
		g.forLoop(depth, d, false)
		return
	}
	v := []string{"i", "j", "k"}[len(g.loopVars)]
	na := 1 + g.r.Intn(2)
	arrs := make([]genArr, 0, na+1)
	n := 1 << 30
	for x := 0; x < na; x++ {
		a := g.farrs[g.r.Intn(len(g.farrs))]
		arrs = append(arrs, a)
		if a.n < n {
			n = a.n
		}
	}
	minIn := n
	out := g.farrs[g.r.Intn(len(g.farrs))]
	if out.n < n {
		n = out.n
	}
	if g.r.Intn(4) == 0 {
		n -= g.r.Intn(3) // ragged vs the block size is fine; stay in bounds
	}
	gather := ""
	if g.r.Intn(2) == 0 {
		c, o := 2+g.r.Intn(3), g.r.Intn(3)
		gather = fmt.Sprintf(" + %s[%d * %s + %d]", arrs[g.r.Intn(len(arrs))].name, c, v, o)
		if g.r.Intn(8) != 0 {
			n = min(n, (minIn-1-o)/c+1)
		}
	}
	g.line(depth, "for (%s = 0; %s < %d; %s++) {", v, v, n, v)
	g.loopVars = append(g.loopVars, v)
	if g.r.Intn(3) == 0 {
		g.line(depth+1, "float tv = %s;", g.vexpr(v, arrs, d-1))
		g.line(depth+1, "%s[%s] = tv + %s%s;", out.name, v, g.vexpr(v, arrs, d-1), gather)
	} else if g.r.Intn(3) == 0 {
		g.line(depth+1, "%s[%s] %s %s%s;", out.name, v, g.pick([]string{"+=", "-=", "*="}), g.vexpr(v, arrs, d-1), gather)
	} else {
		g.line(depth+1, "%s[%s] = %s%s;", out.name, v, g.vexpr(v, arrs, d-1), gather)
	}
	g.loopVars = g.loopVars[:len(g.loopVars)-1]
	g.line(depth, "}")
}

// offloadLoop emits a full offload region: transfer clauses over real
// global arrays plus an omp kernel loop writing the out array.
func (g *progGen) offloadLoop(depth, d int) {
	if len(g.loopVars) > 0 {
		// Offloads don't nest (the tree-walker faults); stay host-side.
		g.forLoop(depth, d, false)
		return
	}
	in := g.farrs[g.r.Intn(len(g.farrs))]
	out := g.farrs[g.r.Intn(len(g.farrs))]
	n := in.n
	if out.n < n {
		n = out.n
	}
	clause := fmt.Sprintf("in(%s : length(%d)) out(%s : length(%d))", in.name, in.n, out.name, out.n)
	if in.name == out.name {
		clause = fmt.Sprintf("inout(%s : length(%d))", in.name, in.n)
	} else if g.r.Intn(4) == 0 {
		clause = fmt.Sprintf("in(%s : length(%d) alloc_if(1) free_if(1)) inout(%s : length(%d))", in.name, in.n, out.name, out.n)
	}
	g.line(depth, "#pragma offload target(mic:0) %s", clause)
	g.line(depth, "#pragma omp parallel for")
	g.line(depth, "for (i = 0; i < %d; i++) {", n)
	g.loopVars = append(g.loopVars, "i")
	g.line(depth+1, "%s[i] = %s;", out.name, g.fexpr(d-1))
	g.loopVars = g.loopVars[:len(g.loopVars)-1]
	g.line(depth, "}")
}

// genProgram builds one complete random MiniC program.
func genProgram(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.floatVars = []string{"fs0", "fs1"}
	g.intVars = []string{"is0", "is1", "i", "j", "k"}
	nf := 2 + g.r.Intn(2)
	for x := 0; x < nf; x++ {
		g.farrs = append(g.farrs, genArr{fmt.Sprintf("FA%d", x), 8 + 4*g.r.Intn(7)})
	}
	g.iarrs = []genArr{{"IA0", 8 + 4*g.r.Intn(5)}}
	g.helpers = 1 + g.r.Intn(2)

	for _, a := range g.farrs {
		g.line(0, "float %s[%d];", a.name, a.n)
	}
	for _, a := range g.iarrs {
		g.line(0, "int %s[%d];", a.name, a.n)
	}
	g.line(0, "float fs0; float fs1;")
	g.line(0, "int is0; int is1; int i; int j; int k;")

	for h := 0; h < g.helpers; h++ {
		g.line(0, "float h%d(float p0, float p1) {", h)
		if g.r.Intn(2) == 0 {
			g.line(1, "if ((p0 > p1)) {")
			g.line(2, "return p0 - %s;", g.flit())
			g.line(1, "}")
		}
		g.line(1, "return (p0 + p1 * %s);", g.flit())
		g.line(0, "}")
	}

	g.line(0, "int main(void) {")
	// Seed the arrays with deterministic contents first.
	for _, a := range g.farrs {
		g.line(1, "for (i = 0; i < %d; i++) { %s[i] = i * %s + %s; }", a.n, a.name, g.flit(), g.flit())
	}
	for _, a := range g.iarrs {
		g.line(1, "for (i = 0; i < %d; i++) { %s[i] = (i * %d) %% %d; }", a.n, a.name, 1+g.r.Intn(6), a.n)
	}
	nStmts := 4 + g.r.Intn(7)
	for s := 0; s < nStmts; s++ {
		g.stmt(1, 2+g.r.Intn(2))
	}
	g.line(1, "printf(\"%%g %%g %%d %%d\\n\", fs0, fs1, is0, is1);")
	for _, a := range g.farrs {
		g.line(1, "printf(\"%%g\\n\", %s[%d]);", a.name, g.r.Intn(a.n))
	}
	g.line(1, "return 0;")
	g.line(0, "}")
	return g.sb.String()
}

// TestVMDiffRandomPrograms sweeps generated programs through both engines.
// The generator only emits well-formed MiniC, so a compile failure is a
// generator bug and fails loudly with the source attached.
func TestVMDiffRandomPrograms(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	for seed := 0; seed < n; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%03d", seed), func(t *testing.T) {
			t.Parallel()
			src := genProgram(int64(seed))
			defer func() {
				if t.Failed() {
					t.Logf("source:\n%s", src)
				}
			}()
			diffRun(t, src, nil, 2_000_000)
		})
	}
}
