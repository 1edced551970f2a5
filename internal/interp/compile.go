package interp

import (
	"fmt"
	"math"
	"strings"

	"comp/internal/analysis"
	"comp/internal/minic"
)

// Env is the per-run execution state. Calls create fresh frames; the Env
// itself is shared down the call stack.
type Env struct {
	p       *Program
	backend Backend

	// Current frame.
	f []float64
	r []*Array

	onDevice bool
	parallel bool
	vec      bool
	// devTouched records device buffers (element index ranges) accessed
	// by the current kernel.
	devTouched map[string]*elemRange

	work   *Work
	retVal float64

	// depth is the live MiniC call depth (bounded by maxCallDepth).
	depth int
	// budget counts down loop iterations when budgetOn (SetLoopBudget).
	budget   int64
	budgetOn bool
}

// maxCallDepth bounds MiniC recursion so runaway programs fault like any
// other runtime error instead of exhausting the Go stack. Engines enforce
// the same limit with the same message.
const maxCallDepth = 10000

// spendIteration enforces the optional per-run loop budget. It sits at
// every loop head, before the condition, in both the tree-walker and the
// VM, so budget faults fire at identical program points.
func (e *Env) spendIteration(pos minic.Pos) {
	if !e.budgetOn {
		return
	}
	e.budget--
	if e.budget < 0 {
		throw(rtErrf(pos, "loop budget exhausted"))
	}
}

type ctl int

const (
	ctlNormal ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

type stmtFn func(*Env) ctl
type exprFn func(*Env) float64
type refFn func(*Env) *Array

// cx is a compiled expression with its static cost.
type cx struct {
	f   exprFn
	w   float64 // operation weight per evaluation
	b   float64 // bytes of array traffic per evaluation
	irr float64 // irregular portion of b
}

type cfunc struct {
	name     string
	decl     *minic.FuncDecl
	numSlots int
	refSlots int
	// params maps positionally to either a numeric or a ref slot.
	params []paramSlot
	body   stmtFn
}

type paramSlot struct {
	slot  int
	isRef bool
	elem  minic.Type
}

type bindKind int

const (
	bindLocal bindKind = iota
	bindLocalRef
	bindGlobal
)

type binding struct {
	kind bindKind
	slot int
	g    *gvar
	typ  minic.Type
}

type compiler struct {
	prog   *Program
	fn     *cfunc
	scopes []map[string]binding
	// loopVars tracks enclosing for-loop index variables (innermost last),
	// used to classify access sites as regular/irregular traffic.
	loopVars []string
}

func (c *compiler) errf(pos minic.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("interp: %s: %s", pos, fmt.Sprintf(format, args...))
}

func (c *compiler) compile() error {
	// Register globals first.
	l := c.prog.layout
	for _, d := range c.prog.file.Decls {
		if vd, ok := d.(*minic.VarDecl); ok {
			l.add(vd)
		}
	}
	// Trim append slack before taking pointers into the slice: the layout
	// lives as long as any cached module built from this program.
	l.globals = append(make([]global, 0, len(l.globals)), l.globals...)
	c.prog.globals = make([]gvar, len(l.globals))
	for i := range c.prog.globals {
		c.prog.globals[i].global = &l.globals[i]
	}
	// Pre-create cfunc shells so calls resolve (including recursion).
	for _, fd := range c.prog.file.Funcs() {
		if fd.Body == nil {
			continue
		}
		c.prog.funcs[fd.Name] = &cfunc{name: fd.Name, decl: fd}
	}
	for _, fd := range c.prog.file.Funcs() {
		if fd.Body == nil {
			continue
		}
		if err := c.compileFunc(c.prog.funcs[fd.Name], fd); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) push() { c.scopes = append(c.scopes, map[string]binding{}) }
func (c *compiler) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) bind(name string, b binding) { c.scopes[len(c.scopes)-1][name] = b }

func (c *compiler) lookup(name string) (binding, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if b, ok := c.scopes[i][name]; ok {
			return b, true
		}
	}
	if g := c.prog.lookup(name); g != nil {
		return binding{kind: bindGlobal, g: g, typ: g.typ}, true
	}
	return binding{}, false
}

func (c *compiler) newSlot() int {
	s := c.fn.numSlots
	c.fn.numSlots++
	return s
}

func (c *compiler) newRefSlot() int {
	s := c.fn.refSlots
	c.fn.refSlots++
	return s
}

func isRefType(t minic.Type) bool { return minic.ElemOf(t) != nil }

func (c *compiler) compileFunc(cf *cfunc, fd *minic.FuncDecl) error {
	c.fn = cf
	c.push()
	defer c.pop()
	for _, p := range fd.Params {
		if isRefType(p.Type) {
			slot := c.newRefSlot()
			cf.params = append(cf.params, paramSlot{slot: slot, isRef: true, elem: minic.ElemOf(p.Type)})
			c.bind(p.Name, binding{kind: bindLocalRef, slot: slot, typ: p.Type})
		} else {
			slot := c.newSlot()
			cf.params = append(cf.params, paramSlot{slot: slot})
			c.bind(p.Name, binding{kind: bindLocal, slot: slot, typ: p.Type})
		}
	}
	body, err := c.compileBlock(fd.Body)
	if err != nil {
		return err
	}
	cf.body = body
	return nil
}

func (c *compiler) compileBlock(b *minic.Block) (stmtFn, error) {
	c.push()
	defer c.pop()
	var stmts []stmtFn
	for _, s := range b.Stmts {
		fn, err := c.compileStmt(s)
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, fn)
	}
	return func(env *Env) ctl {
		for _, s := range stmts {
			if cc := s(env); cc != ctlNormal {
				return cc
			}
		}
		return ctlNormal
	}, nil
}

func (c *compiler) compileStmt(s minic.Stmt) (stmtFn, error) {
	switch x := s.(type) {
	case *minic.Block:
		return c.compileBlock(x)
	case *minic.DeclStmt:
		return c.compileDecl(x)
	case *minic.ExprStmt:
		return c.compileExprStmt(x)
	case *minic.AssignStmt:
		return c.compileAssign(x)
	case *minic.IncDecStmt:
		return c.compileIncDec(x)
	case *minic.IfStmt:
		return c.compileIf(x)
	case *minic.WhileStmt:
		return c.compileWhile(x)
	case *minic.ForStmt:
		return c.compileFor(x)
	case *minic.ReturnStmt:
		return c.compileReturn(x)
	case *minic.BreakStmt:
		return func(*Env) ctl { return ctlBreak }, nil
	case *minic.ContinueStmt:
		return func(*Env) ctl { return ctlContinue }, nil
	case *minic.PragmaStmt:
		return c.compilePragmaStmt(x)
	}
	return nil, c.errf(s.Pos(), "unsupported statement %T", s)
}

func (c *compiler) compileDecl(d *minic.DeclStmt) (stmtFn, error) {
	vd := d.Decl
	if arr, ok := vd.Type.(*minic.Array); ok {
		// Local (possibly variable-length) array: fresh storage per entry.
		if arr.Len == nil {
			return nil, c.errf(vd.Pos(), "local array %s needs a length", vd.Name)
		}
		lenX, err := c.compileExpr(arr.Len)
		if err != nil {
			return nil, err
		}
		slot := c.newRefSlot()
		c.bind(vd.Name, binding{kind: bindLocalRef, slot: slot, typ: vd.Type})
		elem := arr.Elem
		name := vd.Name
		pos := vd.Pos()
		return func(env *Env) ctl {
			n := int64(lenX.f(env))
			if n < 0 {
				throw(rtErrf(pos, "negative length %d for local array %s", n, name))
			}
			env.r[slot] = NewArrayFor(name, elem, n)
			return ctlNormal
		}, nil
	}
	if isRefType(vd.Type) {
		// Pointer local.
		slot := c.newRefSlot()
		c.bind(vd.Name, binding{kind: bindLocalRef, slot: slot, typ: vd.Type})
		if vd.Init == nil {
			return func(env *Env) ctl { env.r[slot] = nil; return ctlNormal }, nil
		}
		rf, err := c.compileRef(vd.Init, minic.ElemOf(vd.Type))
		if err != nil {
			return nil, err
		}
		c.noteAlias(vd.Init)
		return func(env *Env) ctl {
			env.r[slot] = rf(env)
			return ctlNormal
		}, nil
	}
	slot := c.newSlot()
	c.bind(vd.Name, binding{kind: bindLocal, slot: slot, typ: vd.Type})
	intTyped := isIntType(vd.Type)
	if vd.Init == nil {
		return func(env *Env) ctl { env.f[slot] = 0; return ctlNormal }, nil
	}
	init, err := c.compileExpr(vd.Init)
	if err != nil {
		return nil, err
	}
	w, b, irr := init.w, init.b, init.irr
	return func(env *Env) ctl {
		env.addWork(w, b, irr)
		v := init.f(env)
		if intTyped {
			v = math.Trunc(v)
		}
		env.f[slot] = v
		return ctlNormal
	}, nil
}

// noteAlias marks the global a pointer local is assigned from, if any: in
// a kernel the local then references the global's device buffer, and may
// outlive that buffer's free (see global.aliased).
func (c *compiler) noteAlias(rhs minic.Expr) {
	switch x := rhs.(type) {
	case *minic.ParenExpr:
		c.noteAlias(x.X)
	case *minic.Ident:
		if bnd, ok := c.lookup(x.Name); ok && bnd.kind == bindGlobal {
			bnd.g.aliased = true
		}
	}
}

func isIntType(t minic.Type) bool {
	b, ok := t.(*minic.Basic)
	return ok && b.IsInteger()
}

func (c *compiler) compileExprStmt(x *minic.ExprStmt) (stmtFn, error) {
	// Pointer-valued calls used as statements (free) are handled in
	// compileExpr's call support.
	e, err := c.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	w, b, irr := e.w, e.b, e.irr
	return func(env *Env) ctl {
		env.addWork(w, b, irr)
		e.f(env)
		return ctlNormal
	}, nil
}

func (c *compiler) compileAssign(x *minic.AssignStmt) (stmtFn, error) {
	// Pointer assignment: p = malloc(...), p = q.
	if id, ok := x.LHS.(*minic.Ident); ok {
		if bnd, found := c.lookup(id.Name); found && isRefType(bnd.typ) {
			if x.Op != "=" {
				return nil, c.errf(x.Pos(), "compound assignment to pointer %s", id.Name)
			}
			rf, err := c.compileRef(x.RHS, minic.ElemOf(bnd.typ))
			if err != nil {
				return nil, err
			}
			switch bnd.kind {
			case bindLocalRef:
				slot := bnd.slot
				c.noteAlias(x.RHS)
				return func(env *Env) ctl { env.r[slot] = rf(env); return ctlNormal }, nil
			case bindGlobal:
				g := bnd.g
				pos := x.Pos()
				return func(env *Env) ctl {
					if env.onDevice {
						throw(rtErrf(pos, "cannot rebind global pointer %s on the device", g.name))
					}
					g.setStorage(rf(env))
					return ctlNormal
				}, nil
			}
		}
	}
	rhs, err := c.compileExpr(x.RHS)
	if err != nil {
		return nil, err
	}
	store, load, lw, lb, lirr, intTyped, err := c.compileLValue(x.LHS)
	if err != nil {
		return nil, err
	}
	op := strings.TrimSuffix(x.Op, "=")
	w := rhs.w + lw + 1
	b := rhs.b + lb
	irr := rhs.irr + lirr
	if op == "" {
		return func(env *Env) ctl {
			env.addWork(w, b, irr)
			v := rhs.f(env)
			if intTyped {
				v = math.Trunc(v)
			}
			store(env, v)
			return ctlNormal
		}, nil
	}
	// Compound assignment reads then writes.
	b += lb
	irr += lirr
	return func(env *Env) ctl {
		env.addWork(w, b, irr)
		cur := load(env)
		v := applyBinOp(op, cur, rhs.f(env), intTyped)
		if intTyped {
			v = math.Trunc(v)
		}
		store(env, v)
		return ctlNormal
	}, nil
}

func (c *compiler) compileIncDec(x *minic.IncDecStmt) (stmtFn, error) {
	store, load, lw, lb, lirr, _, err := c.compileLValue(x.X)
	if err != nil {
		return nil, err
	}
	delta := 1.0
	if x.Op == "--" {
		delta = -1
	}
	w := lw + 1
	return func(env *Env) ctl {
		env.addWork(w, 2*lb, 2*lirr)
		store(env, load(env)+delta)
		return ctlNormal
	}, nil
}

func (c *compiler) compileIf(x *minic.IfStmt) (stmtFn, error) {
	cond, err := c.compileExpr(x.Cond)
	if err != nil {
		return nil, err
	}
	then, err := c.compileBlock(x.Then)
	if err != nil {
		return nil, err
	}
	var els stmtFn
	if x.Else != nil {
		els, err = c.compileStmt(x.Else)
		if err != nil {
			return nil, err
		}
	}
	w, b, irr := cond.w, cond.b, cond.irr
	return func(env *Env) ctl {
		env.addWork(w, b, irr)
		if cond.f(env) != 0 {
			return then(env)
		}
		if els != nil {
			return els(env)
		}
		return ctlNormal
	}, nil
}

func (c *compiler) compileWhile(x *minic.WhileStmt) (stmtFn, error) {
	cond, err := c.compileExpr(x.Cond)
	if err != nil {
		return nil, err
	}
	body, err := c.compileBlock(x.Body)
	if err != nil {
		return nil, err
	}
	w, b, irr := cond.w, cond.b, cond.irr
	pos := x.Pos()
	return func(env *Env) ctl {
		for iter := int64(0); ; iter++ {
			if iter > maxLoopIters {
				throw(rtErrf(pos, "while loop exceeded %d iterations", int64(maxLoopIters)))
			}
			env.spendIteration(pos)
			env.addWork(w, b, irr)
			if cond.f(env) == 0 {
				return ctlNormal
			}
			switch body(env) {
			case ctlBreak:
				return ctlNormal
			case ctlReturn:
				return ctlReturn
			}
		}
	}, nil
}

// maxLoopIters guards against runaway loops in transformed code under test.
const maxLoopIters = 1 << 33

func (c *compiler) compileReturn(x *minic.ReturnStmt) (stmtFn, error) {
	if x.X == nil {
		return func(env *Env) ctl { env.retVal = 0; return ctlReturn }, nil
	}
	e, err := c.compileExpr(x.X)
	if err != nil {
		return nil, err
	}
	w, b, irr := e.w, e.b, e.irr
	return func(env *Env) ctl {
		env.addWork(w, b, irr)
		env.retVal = e.f(env)
		return ctlReturn
	}, nil
}

// elemRange tracks the min/max element index touched in one buffer.
type elemRange struct{ lo, hi int64 }

// touchDev widens the touched range of a device buffer.
func (e *Env) touchDev(name string, idx int64) {
	r := e.devTouched[name]
	if r == nil {
		e.devTouched[name] = &elemRange{lo: idx, hi: idx}
		return
	}
	if idx < r.lo {
		r.lo = idx
	}
	if idx > r.hi {
		r.hi = idx
	}
}

// addWork routes measured cost to the bucket matching the execution mode.
func (e *Env) addWork(w, b, irr float64) {
	var bk *Bucket
	switch {
	case !e.parallel:
		bk = &e.work.Serial
	case e.vec:
		bk = &e.work.Vec
	default:
		bk = &e.work.Scalar
	}
	bk.Flops += w
	bk.Bytes += b
	bk.IrrBytes += irr
}

// call invokes a compiled function with evaluated arguments.
func (e *Env) call(cf *cfunc, args []float64, refArgs []*Array) float64 {
	if e.depth >= maxCallDepth {
		throw(rtErrf(minic.Pos{}, "call depth exceeded (%d frames)", maxCallDepth))
	}
	e.depth++
	savedF, savedR, savedRet := e.f, e.r, e.retVal
	e.f = make([]float64, cf.numSlots)
	e.r = make([]*Array, cf.refSlots)
	ai, ri := 0, 0
	for _, ps := range cf.params {
		if ps.isRef {
			e.r[ps.slot] = refArgs[ri]
			ri++
		} else {
			e.f[ps.slot] = args[ai]
			ai++
		}
	}
	cf.body(e)
	ret := e.retVal
	e.f, e.r, e.retVal = savedF, savedR, savedRet
	e.depth--
	return ret
}

func applyBinOp(op string, a, b float64, intCtx bool) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		if intCtx {
			if b == 0 {
				throw(rtErrf(minic.Pos{}, "integer division by zero"))
			}
			return math.Trunc(a / b)
		}
		return a / b
	case "%":
		if int64(b) == 0 {
			throw(rtErrf(minic.Pos{}, "integer modulus by zero"))
		}
		return float64(int64(a) % int64(b))
	case "<<":
		return float64(int64(a) << uint(int64(b)))
	case ">>":
		return float64(int64(a) >> uint(int64(b)))
	case "==":
		return boolToF(a == b)
	case "!=":
		return boolToF(a != b)
	case "<":
		return boolToF(a < b)
	case "<=":
		return boolToF(a <= b)
	case ">":
		return boolToF(a > b)
	case ">=":
		return boolToF(a >= b)
	case "&&":
		return boolToF(a != 0 && b != 0)
	case "||":
		return boolToF(a != 0 || b != 0)
	}
	throw(rtErrf(minic.Pos{}, "unknown operator %q", op))
	return 0
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// innermostLoopVar returns the index variable used for access
// classification, or "".
func (c *compiler) innermostLoopVar() string {
	if len(c.loopVars) == 0 {
		return ""
	}
	return c.loopVars[len(c.loopVars)-1]
}

// classifySite decides whether an access site counts as irregular traffic.
func (c *compiler) classifySite(idx minic.Expr) bool {
	ivar := c.innermostLoopVar()
	if ivar == "" {
		return false
	}
	kind, stride := analysis.ClassifySite(idx, ivar)
	switch kind {
	case analysis.AccessIndirect, analysis.AccessOpaque:
		return true
	}
	return stride != 1 && stride != 0
}
