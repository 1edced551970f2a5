package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// genProgram is one generated MiniC program: its offload-annotated source
// and the global arrays its regions write, which the oracle compares.
type genProgram struct {
	Source  string
	Outputs []string
}

// Region shapes. Each gives a different COMP pass something to do:
// element-wise loops stream (§III), strided-field and gathered loops
// regularize (§IV), and a time loop around two offloads merges (§III-C).
const (
	shapeElementwise = iota
	shapeStrided
	shapeGather
	shapeTimeLoop
	numShapes
)

// gen accumulates one program: global declarations, the input set-up that
// opens main, and the offload regions that follow it.
type gen struct {
	r       *rand.Rand
	n       int
	decls   strings.Builder
	inits   strings.Builder
	body    strings.Builder
	outputs []string
}

// generate builds a program with the given number of offload regions over
// arrays of n elements. Shapes follow each other in a fixed rotation from
// a seeded first shape, so programs of one size give the passes the same
// mix of work at every seed; the seed draws the rest — the first shape,
// strides, trip counts and arithmetic. Every input is set by loops at the
// top of main, so the program needs no set-up hook.
func generate(seed int64, regions, n int) genProgram {
	g := &gen{r: rand.New(rand.NewSource(seed)), n: n}
	first := g.r.Intn(numShapes)
	for k := 0; k < regions; k++ {
		switch (first + k) % numShapes {
		case shapeElementwise:
			g.elementwise(k)
		case shapeStrided:
			g.strided(k)
		case shapeGather:
			g.gather(k)
		default:
			g.timeLoop(k)
		}
	}
	var sb strings.Builder
	sb.WriteString(g.decls.String())
	sb.WriteString("\nint main(void) {\n    int i;\n    int t;\n")
	sb.WriteString(g.inits.String())
	sb.WriteString(g.body.String())
	sb.WriteString("    return 0;\n}\n")
	return genProgram{Source: sb.String(), Outputs: g.outputs}
}

// lit returns a positive float literal in [0.01, 3.99].
func (g *gen) lit() string { return fmt.Sprintf("%d.%02d", g.r.Intn(4), 1+g.r.Intn(99)) }

// array declares a global float array and fills it in main.
func (g *gen) array(name string, n int) {
	fmt.Fprintf(&g.decls, "float %s[%d];\n", name, n)
	fmt.Fprintf(&g.inits, "    for (i = 0; i < %d; i++) { %s[i] = (i %% %d) * %s + %s; }\n",
		n, name, 3+g.r.Intn(29), g.lit(), g.lit())
}

// output declares a global float array a region writes.
func (g *gen) output(name string, n int) {
	fmt.Fprintf(&g.decls, "float %s[%d];\n", name, n)
	g.outputs = append(g.outputs, name)
}

// expr returns an element-wise expression of x whose value is always
// finite, so outputs compare bit for bit.
func (g *gen) expr(x string) string {
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("%s * %s + %s", x, g.lit(), g.lit())
	case 1:
		return fmt.Sprintf("sqrt(fabs(%s) + %s) * %s", x, g.lit(), g.lit())
	case 2:
		return fmt.Sprintf("exp(-fabs(%s) * %s) + %s", x, g.lit(), x)
	default:
		return fmt.Sprintf("fmax(%s, %s) - fmin(%s * %s, %s)", x, g.lit(), x, g.lit(), g.lit())
	}
}

func (g *gen) line(format string, args ...interface{}) {
	g.body.WriteString("    ")
	fmt.Fprintf(&g.body, format, args...)
	g.body.WriteString("\n")
}

// elementwise: out[i] = f(in[i]), the streaming shape.
func (g *gen) elementwise(k int) {
	in, out := fmt.Sprintf("e%da", k), fmt.Sprintf("e%do", k)
	g.array(in, g.n)
	g.output(out, g.n)
	g.line("#pragma offload target(mic:0) in(%s : length(%d)) out(%s : length(%d))", in, g.n, out, g.n)
	g.line("#pragma omp parallel for")
	g.line("for (i = 0; i < %d; i++) {", g.n)
	g.line("    %s[i] = %s;", out, g.expr(in+"[i]"))
	g.line("}")
}

// strided reads two fields of flat records with a constant stride, the
// nn-style pattern array reordering packs densely.
func (g *gen) strided(k int) {
	fields := []int{2, 4, 8}[g.r.Intn(3)]
	rec, out := fmt.Sprintf("s%dr", k), fmt.Sprintf("s%do", k)
	g.array(rec, fields*g.n)
	g.output(out, g.n)
	g.line("#pragma offload target(mic:0) in(%s : length(%d)) out(%s : length(%d))", rec, fields*g.n, out, g.n)
	g.line("#pragma omp parallel for")
	g.line("for (i = 0; i < %d; i++) {", g.n)
	g.line("    float u = %s[%d * i] - %s;", rec, fields, g.lit())
	g.line("    float v = %s[%d * i + 1] - %s;", rec, fields, g.lit())
	g.line("    %s[i] = sqrt(u * u + v * v) + %s;", out, g.expr("u"))
	g.line("}")
}

// gather reads a source array through an index array, the srad-style
// pattern loop splitting and reordering regularize.
func (g *gen) gather(k int) {
	src, idx, out := fmt.Sprintf("g%ds", k), fmt.Sprintf("g%dx", k), fmt.Sprintf("g%do", k)
	g.array(src, g.n)
	fmt.Fprintf(&g.decls, "int %s[%d];\n", idx, g.n)
	fmt.Fprintf(&g.inits, "    for (i = 0; i < %d; i++) { %s[i] = (i * %d + %d) %% %d; }\n",
		g.n, idx, 1+2*g.r.Intn(50), g.r.Intn(g.n), g.n)
	g.output(out, g.n)
	g.line("#pragma offload target(mic:0) in(%s : length(%d)) in(%s : length(%d)) out(%s : length(%d))",
		src, g.n, idx, g.n, out, g.n)
	g.line("#pragma omp parallel for")
	g.line("for (i = 0; i < %d; i++) {", g.n)
	g.line("    float c = %s[i];", src)
	g.line("    float d = %s[%s[i]] - c;", src, idx)
	g.line("    %s[i] = d * d / (c * c + %s) + %s;", out, g.lit(), g.expr("c"))
	g.line("}")
}

// timeLoop wraps two dependent offloads in a host loop, the cfd-style
// shape offload merging hoists into one region.
func (g *gen) timeLoop(k int) {
	a, b, c := fmt.Sprintf("t%da", k), fmt.Sprintf("t%db", k), fmt.Sprintf("t%dc", k)
	g.array(a, g.n)
	g.output(b, g.n)
	g.output(c, g.n)
	g.line("for (t = 0; t < %d; t++) {", 2+g.r.Intn(5))
	g.line("    #pragma offload target(mic:0) in(%s : length(%d)) out(%s : length(%d))", a, g.n, b, g.n)
	g.line("    #pragma omp parallel for")
	g.line("    for (i = 0; i < %d; i++) {", g.n)
	g.line("        %s[i] = %s + t * %s;", b, g.expr(a+"[i]"), g.lit())
	g.line("    }")
	g.line("    #pragma offload target(mic:0) in(%s : length(%d)) inout(%s : length(%d))", b, g.n, c, g.n)
	g.line("    #pragma omp parallel for")
	g.line("    for (i = 0; i < %d; i++) {", g.n)
	g.line("        %s[i] = %s[i] * %s + %s[i];", c, c, "0.5", b)
	g.line("    }")
	g.line("}")
}
