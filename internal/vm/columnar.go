package vm

import (
	"comp/internal/analysis"
	"comp/internal/minic"
)

// The columnar tier compiles qualifying for loops into one VecLoopDesc: a
// fused element-wise kernel the machine executes in blocked batches over
// slices of the backing arrays, instead of per-element push/pop bytecode.
// Qualification is strict by design — the descriptor must charge the same
// Work, touch the same device ranges, and compute bit-identical values as
// the scalar loop it fast-forwards, so anything that could diverge
// (indirect or strided-write subscripts, calls, writes to outer scalars,
// faultable divisions) falls back to the scalar bytecode, which stays
// compiled and unchanged right after the OpVecLoop. Reads may be strided,
// a[c*i + o]: those gather into a register column, the regularization
// loops' shape (§IV packs A[c*i] into a dense array with such a loop).

// colBlock is the batch width: one dispatch of the column program covers
// up to this many iterations. 256 doubles = 2KB per register column, small
// enough to stay cache-resident across a dozen registers while amortizing
// the per-op dispatch to ~1/256 of the scalar cost.
const colBlock = 256

// VecImm kinds: where an immediate (loop-invariant broadcast) register's
// value comes from at batch entry.
const (
	vimConst  int32 = iota // Consts[A]
	vimLocal               // frame slot A
	vimGlobal              // global A (device-aware read)
)

// VecImm broadcasts one loop-invariant scalar into register Dst before the
// batch runs. The loop body cannot assign non-temporary scalars (the
// qualifier rejects those loops), so one broadcast per batch is exact.
type VecImm struct {
	Kind, A, Dst int32
}

// VecSite is one array access pattern of the kernel: elements
// Stride*i + Off of the array, for induction variable i. Local sites name
// a ref slot; global sites a module global (resolved device-aware, like
// OpRefG, at batch entry). A unit site (Stride 1, Off 0) is read and
// written through zero-copy windows; any other site is a read-only gather.
type VecSite struct {
	Local  bool
	A      int32
	Stride int32 // positive
	Off    int32 // within ±maxSiteOff
}

// unit reports whether the site walks the array at the induction variable.
func (s VecSite) unit() bool { return s.Stride == 1 && s.Off == 0 }

// maxSiteOff bounds a site's stride and offset. A batch starts below
// 2^31, so every index a batch computes stays below 2^53 and the scalar
// loop's float64 arithmetic computes it exactly too.
const maxSiteOff = 1 << 20

// Column-program opcodes. Each processes one block of lanes.
const (
	cLoad   int32 = iota // bind Dst to unit Sites[Site]'s backing slice window
	cStore               // store X's column into unit Sites[Site]'s window
	cGather              // copy strided Sites[Site]'s lanes into Dst's column
	cMov
	cTrunc
	cNeg
	cNot
	cAdd
	cSub
	cMul
	cDivF
	cDivI // divisor must be a nonzero constant immediate (verified)
	cMod  // divisor must be a nonzero (as int64) constant immediate
	cShl
	cShr
	cEq
	cNe
	cLt
	cLe
	cGt
	cGe
	cAndE // eager &&; operands are pure, so eager == short-circuit
	cOrE
	cSel // Dst = X != 0 ? Y : Z (both branches pure, evaluated eagerly)
	cSqrt
	cExp
	cLog
	cPow
	cFabs
	cFloor
	cCeil
	cFmin
	cFmax
	cColCount
)

// colInfo drives the verifier and the disassembler: operand-register count
// (X, Y, Z prefix), whether the op writes Dst, and whether it names a site.
var colInfo = [cColCount]struct {
	name   string
	args   int
	hasDst bool
	site   bool
}{
	cLoad:   {"Load", 0, true, true},
	cStore:  {"Store", 1, false, true},
	cGather: {"Gather", 0, true, true},
	cMov:    {"Mov", 1, true, false},
	cTrunc:  {"Trunc", 1, true, false},
	cNeg:    {"Neg", 1, true, false},
	cNot:    {"Not", 1, true, false},
	cAdd:    {"Add", 2, true, false},
	cSub:    {"Sub", 2, true, false},
	cMul:    {"Mul", 2, true, false},
	cDivF:   {"DivF", 2, true, false},
	cDivI:   {"DivI", 2, true, false},
	cMod:    {"Mod", 2, true, false},
	cShl:    {"Shl", 2, true, false},
	cShr:    {"Shr", 2, true, false},
	cEq:     {"Eq", 2, true, false},
	cNe:     {"Ne", 2, true, false},
	cLt:     {"Lt", 2, true, false},
	cLe:     {"Le", 2, true, false},
	cGt:     {"Gt", 2, true, false},
	cGe:     {"Ge", 2, true, false},
	cAndE:   {"AndE", 2, true, false},
	cOrE:    {"OrE", 2, true, false},
	cSel:    {"Sel", 3, true, false},
	cSqrt:   {"Sqrt", 1, true, false},
	cExp:    {"Exp", 1, true, false},
	cLog:    {"Log", 1, true, false},
	cPow:    {"Pow", 2, true, false},
	cFabs:   {"Fabs", 1, true, false},
	cFloor:  {"Floor", 1, true, false},
	cCeil:   {"Ceil", 1, true, false},
	cFmin:   {"Fmin", 2, true, false},
	cFmax:   {"Fmax", 2, true, false},
}

// colBuiltin maps OpBuiltin kinds to their columnar counterparts.
var colBuiltin = map[int]int32{
	bSqrt: cSqrt, bExp: cExp, bLog: cLog, bPow: cPow, bFabs: cFabs,
	bFloor: cFloor, bCeil: cCeil, bFmin: cFmin, bFmax: cFmax,
}

// ColIns is one column-program instruction. Unused operands are -1.
type ColIns struct {
	Kind, Dst, X, Y, Z, Site int32
}

// VecLoopDesc is one fused loop kernel. At runtime the machine reads the
// live induction variable, evaluates the bound block, clamps the batch to
// the shortest site (so faulting iterations replay natively in the scalar
// tail), executes Prog over blocked columns, then charges K*PerIter,
// advances the index, guard, budget, and device-touch state exactly as K
// scalar iterations would have, and falls through to the scalar head.
type VecLoopDesc struct {
	IdxSlot   int32 // induction variable frame slot, -1 when global
	IdxG      int32 // induction variable global index, -1 when local
	GuardSlot int32 // the loop's hidden guard counter slot
	Par       bool  // loop head uses OpGuardPar/OpIterTick semantics
	LE        bool  // condition is i <= bound (else i < bound)
	IotaReg   int32 // register holding the lane indices, -1 if unused
	NRegs     int32 // total register columns

	// PerIter is the summed per-iteration cost: the condition's charge,
	// every body statement's charge, and the post statement's charge —
	// identical, by construction, to what the scalar encoding charges
	// across one trip through the loop.
	PerIter WorkTriple

	Upper []Instr // mini-block computing the loop bound (pure, verified)
	Imms  []VecImm
	Sites []VecSite
	Prog  []ColIns
}

// VecLoopCount reports the number of fused loops across the module (for
// benchmarks and tests asserting the tier actually engaged).
func (m *Module) VecLoopCount() int {
	n := 0
	for _, ch := range m.Funcs {
		n += len(ch.VecLoops)
	}
	return n
}

func stripParens(e minic.Expr) minic.Expr {
	for {
		p, ok := e.(*minic.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// tryVecLoop qualifies one for loop for the columnar tier and lowers its
// body to a column program. info is the loop's analysis when the caller
// has one, else nil. A nil return means "scalar only"; it must leave no
// trace in the chunk beyond possibly interned constants.
func (c *comp) tryVecLoop(fs *minic.ForStmt, info *analysis.LoopInfo, par bool, guardSlot int) *VecLoopDesc {
	// Only straight-line bodies lower; checking that first spares the
	// analysis of every loop that nests a loop or a branch.
	for _, s := range fs.Body.Stmts {
		switch s.(type) {
		case *minic.DeclStmt, *minic.AssignStmt, *minic.IncDecStmt, *minic.ExprStmt:
		default:
			return nil
		}
	}
	if info == nil {
		var err error
		if info, err = analysis.Analyze(fs, c.file); err != nil {
			return nil
		}
	}
	if !columnarGate(info) || info.Step != 1 || info.IndexVar == "" {
		return nil
	}
	bnd, ok := c.lookup(info.IndexVar)
	if !ok || !isIntType(bnd.typ) {
		return nil
	}
	d := &VecLoopDesc{
		IdxSlot: -1, IdxG: -1, GuardSlot: int32(guardSlot),
		Par: par, IotaReg: -1,
	}
	switch bnd.kind {
	case bindLocal:
		d.IdxSlot = int32(bnd.slot)
	case bindGlobal:
		d.IdxG = int32(bnd.gidx)
	default:
		return nil
	}
	cond, ok := fs.Cond.(*minic.BinaryExpr)
	if !ok {
		return nil
	}
	lhs, ok := stripParens(cond.X).(*minic.Ident)
	if !ok || lhs.Name != info.IndexVar {
		return nil
	}
	switch cond.Op {
	case "<":
	case "<=":
		d.LE = true
	default:
		return nil
	}
	if !c.pureBound(cond.Y, info.IndexVar) {
		return nil
	}
	// Condition cost mirrors the scalar head's charge, computed (like the
	// scalar compile) before the loop variable is pushed.
	condK, err := c.staticCost(fs.Cond)
	if err != nil {
		return nil
	}

	// The lowering scratch is the compiler's, reused across attempts: most
	// loops fail qualification, and each attempt would otherwise allocate.
	v := &c.col
	*v = colComp{
		c: c, d: d, ivar: info.IndexVar,
		temps: v.temps[:0], siteInt: v.siteInt[:0], siteEB: v.siteEB[:0], views: v.views[:0],
	}
	total := condK
	c.loopVars = append(c.loopVars, info.IndexVar)
	lowered := true
	for _, s := range fs.Body.Stmts {
		k, sok := v.stmt(s)
		if !sok {
			lowered = false
			break
		}
		total = cost{total.w + k.w, total.b + k.b, total.irr + k.irr}
	}
	c.loopVars = c.loopVars[:len(c.loopVars)-1]
	if !lowered || len(d.Sites) == 0 {
		return nil
	}
	postK, ok := c.postCost(fs.Post)
	if !ok {
		return nil
	}
	total = cost{total.w + postK.w, total.b + postK.b, total.irr + postK.irr}
	d.PerIter = WorkTriple{W: total.w, B: total.b, Irr: total.irr}
	up, err := c.miniBlock(cond.Y)
	if err != nil || len(up) == 0 {
		return nil
	}
	d.Upper = up
	return d
}

// columnarGate is the analysis's Vectorizable verdict with strided reads
// let through: a while loop, an indirect, opaque or member subscript, or a
// strided write still rejects the loop before any lowering work. The
// lowering itself then takes only strides spelled as literal factors.
func columnarGate(info *analysis.LoopInfo) bool {
	if info.HasWhile {
		return false
	}
	for _, a := range info.Accesses {
		if a.Irregular() && (a.Write || a.Kind != analysis.AccessAffine || a.Field != "" || a.Stride < 1) {
			return false
		}
	}
	return true
}

// pureBound accepts loop-bound expressions that are loop-invariant and
// side-effect free: literals, scalar reads, and +/-/* arithmetic. The
// resulting mini-block is evaluated once per batch where the scalar head
// evaluates the condition every iteration, so anything impure disqualifies.
func (c *comp) pureBound(e minic.Expr, ivar string) bool {
	switch x := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.SizeofExpr:
		return true
	case *minic.ParenExpr:
		return c.pureBound(x.X, ivar)
	case *minic.Ident:
		if x.Name == ivar {
			return false
		}
		bnd, ok := c.lookup(x.Name)
		if !ok || isRefType(bnd.typ) {
			return false
		}
		return bnd.kind == bindLocal || bnd.kind == bindGlobal
	case *minic.UnaryExpr:
		return x.Op == "-" && c.pureBound(x.X, ivar)
	case *minic.BinaryExpr:
		switch x.Op {
		case "+", "-", "*":
			return c.pureBound(x.X, ivar) && c.pureBound(x.Y, ivar)
		}
	}
	return false
}

// postCost mirrors the scalar compile's charge for the post statement.
// The analysis already pinned the post to i++ or i += <positive const>
// with step 1; both shapes charge exactly {1, 0, 0} (the index is a plain
// scalar, so the lvalue contributes no bytes).
func (c *comp) postCost(s minic.Stmt) (cost, bool) {
	switch x := s.(type) {
	case *minic.IncDecStmt:
		return cost{1, 0, 0}, true
	case *minic.AssignStmt:
		k, err := c.staticCost(x.RHS)
		if err != nil {
			return cost{}, false
		}
		return cost{k.w + 1, k.b, k.irr}, true
	}
	return cost{}, false
}

// colTemp is a body-declared scalar lowered to a register column.
type colTemp struct {
	name     string
	reg      int32
	intTyped bool
}

// colComp lowers one loop body to a column program. Every cost it returns
// is computed with the compiler's own staticCost machinery, so the charges
// are the scalar encoding's charges by construction, not a re-derivation.
// Its lookups scan short slices: a loop body names a handful of temps,
// immediates and sites.
type colComp struct {
	c    *comp
	d    *VecLoopDesc
	ivar string

	temps   []colTemp // in declaration order; the last of a name wins
	siteInt []bool    // per site: integer elements
	siteEB  []float64 // per site: element bytes
	views   []int32   // per site: the register holding its lanes, -1 until bound

	// lazy counts enclosing lazily-evaluated contexts (&&/|| right sides,
	// ?: branches). The scalar engine may skip those subexpressions, so a
	// site inside one could touch device ranges the oracle never touches —
	// sites there disqualify the loop. Pure arithmetic is fine: evaluating
	// it eagerly changes no observable value.
	lazy int
}

func (v *colComp) temp(name string) (colTemp, bool) {
	for i := len(v.temps) - 1; i >= 0; i-- {
		if v.temps[i].name == name {
			return v.temps[i], true
		}
	}
	return colTemp{}, false
}

func (v *colComp) newReg() int32 {
	r := v.d.NRegs
	v.d.NRegs++
	return r
}

func (v *colComp) emit(kind, dst, x, y, z, site int32) {
	v.d.Prog = append(v.d.Prog, ColIns{Kind: kind, Dst: dst, X: x, Y: y, Z: z, Site: site})
}

func (v *colComp) immReg(kind, a int32) int32 {
	for _, im := range v.d.Imms {
		if im.Kind == kind && im.A == a {
			return im.Dst
		}
	}
	r := v.newReg()
	v.d.Imms = append(v.d.Imms, VecImm{Kind: kind, A: a, Dst: r})
	return r
}

func (v *colComp) constImm(val float64) int32 {
	return v.immReg(vimConst, v.c.constIdx(val))
}

// constOf returns the value of a constant-immediate register.
func (v *colComp) constOf(r int32) (float64, bool) {
	for _, im := range v.d.Imms {
		if im.Dst == r && im.Kind == vimConst {
			return v.c.fn.Consts[im.A], true
		}
	}
	return 0, false
}

func (v *colComp) iotaReg() int32 {
	if v.d.IotaReg < 0 {
		v.d.IotaReg = v.newReg()
	}
	return v.d.IotaReg
}

// siteOf qualifies one array access as a streamable site: a non-shadowed
// array name with a basic (single-field) element type, outside any
// lazily-evaluated context, subscripted by exactly the induction variable
// or, when gather is set, by a strided form stridedIndex accepts.
func (v *colComp) siteOf(x *minic.IndexExpr, gather bool) (int32, bool) {
	if v.lazy > 0 {
		return 0, false
	}
	id, ok := stripParens(x.X).(*minic.Ident)
	if !ok {
		return 0, false
	}
	if _, shadowed := v.temp(id.Name); shadowed {
		return 0, false
	}
	stride, off, ok := stridedIndex(x.Index, v.ivar)
	if !ok || !gather && (stride != 1 || off != 0) {
		return 0, false
	}
	bnd, found := v.c.lookup(id.Name)
	if !found || !isRefType(bnd.typ) {
		return 0, false
	}
	elem, ok := minic.ElemOf(bnd.typ).(*minic.Basic)
	if !ok {
		return 0, false
	}
	s := VecSite{Stride: int32(stride), Off: int32(off)}
	switch bnd.kind {
	case bindLocalRef:
		s.Local, s.A = true, int32(bnd.slot)
	case bindGlobal:
		s.A = int32(bnd.gidx)
	default:
		return 0, false
	}
	for si, seen := range v.d.Sites {
		if seen == s {
			return int32(si), true
		}
	}
	si := int32(len(v.d.Sites))
	v.d.Sites = append(v.d.Sites, s)
	v.siteInt = append(v.siteInt, elem.IsInteger())
	v.siteEB = append(v.siteEB, float64(elem.Size()))
	v.views = append(v.views, -1)
	return si, true
}

// stridedIndex decodes a site subscript as stride*ivar + off: either
// exactly ivar, or c*ivar (or ivar*c) for a positive int literal c, plus
// or minus an optional int literal. Both are bounded by maxSiteOff. Other
// shapes, ivar + 1 included, are not sites.
func stridedIndex(e minic.Expr, ivar string) (stride, off int64, ok bool) {
	e = stripParens(e)
	if id, isIdent := e.(*minic.Ident); isIdent {
		return 1, 0, id.Name == ivar
	}
	if b, isBin := e.(*minic.BinaryExpr); isBin && (b.Op == "+" || b.Op == "-") {
		term, lit := b.X, stripParens(b.Y)
		if _, isLit := lit.(*minic.IntLit); !isLit && b.Op == "+" {
			term, lit = b.Y, stripParens(b.X)
		}
		o, isLit := lit.(*minic.IntLit)
		if !isLit || o.Value > maxSiteOff || o.Value < -maxSiteOff {
			return 0, 0, false
		}
		off = o.Value
		if b.Op == "-" {
			off = -off
		}
		e = stripParens(term)
	}
	m, isMul := e.(*minic.BinaryExpr)
	if !isMul || m.Op != "*" {
		return 0, 0, false
	}
	c, isLit := stripParens(m.X).(*minic.IntLit)
	id, isIdent := stripParens(m.Y).(*minic.Ident)
	if !isLit {
		c, isLit = stripParens(m.Y).(*minic.IntLit)
		id, isIdent = stripParens(m.X).(*minic.Ident)
	}
	if !isLit || !isIdent || id.Name != ivar || c.Value < 1 || c.Value > maxSiteOff {
		return 0, 0, false
	}
	return c.Value, off, true
}

// view returns the register holding a site's lanes, emitting its bind on
// first use. A unit site binds a zero-copy alias into the backing array,
// so reads through it always observe prior cStores — the in-order
// per-lane semantics the scalar loop has. A strided site gathers its
// lanes into a pooled column once: the batch bails to scalar when a
// gathered array shares storage with a stored site, so nothing the batch
// writes can change them.
func (v *colComp) view(si int32) int32 {
	if r := v.views[si]; r >= 0 {
		return r
	}
	r := v.newReg()
	v.views[si] = r
	kind := cLoad
	if !v.d.Sites[si].unit() {
		kind = cGather
	}
	v.emit(kind, r, -1, -1, -1, si)
	return r
}

// stmt lowers one body statement, returning the scalar encoding's cost
// charge for it. Any statement shape the tier cannot reproduce exactly
// fails qualification.
func (v *colComp) stmt(s minic.Stmt) (cost, bool) {
	switch x := s.(type) {
	case *minic.DeclStmt:
		return v.declStmt(x)
	case *minic.AssignStmt:
		return v.assign(x)
	case *minic.IncDecStmt:
		return v.incDec(x)
	case *minic.ExprStmt:
		k, err := v.c.staticCost(x.X)
		if err != nil {
			return cost{}, false
		}
		if _, ok := v.expr(x.X); !ok {
			return cost{}, false
		}
		return k, true
	}
	return cost{}, false
}

func (v *colComp) declStmt(d *minic.DeclStmt) (cost, bool) {
	vd := d.Decl
	bt, ok := vd.Type.(*minic.Basic)
	if !ok || vd.Name == v.ivar {
		return cost{}, false
	}
	reg := v.newReg()
	if vd.Init == nil {
		// Scalar: OpZero, no charge.
		v.emit(cMov, reg, v.constImm(0), -1, -1, -1)
		v.temps = append(v.temps, colTemp{name: vd.Name, reg: reg, intTyped: bt.IsInteger()})
		return cost{}, true
	}
	k, err := v.c.staticCost(vd.Init)
	if err != nil {
		return cost{}, false
	}
	// Initializer compiles before the name binds, so `int t = t + 1`
	// reads the outer t — the scalar scoping.
	r, ok := v.expr(vd.Init)
	if !ok {
		return cost{}, false
	}
	if bt.IsInteger() {
		v.emit(cTrunc, reg, r, -1, -1, -1)
	} else {
		v.emit(cMov, reg, r, -1, -1, -1)
	}
	v.temps = append(v.temps, colTemp{name: vd.Name, reg: reg, intTyped: bt.IsInteger()})
	return k, true
}

func (v *colComp) assign(x *minic.AssignStmt) (cost, bool) {
	op := ""
	if x.Op != "=" {
		op = x.Op[:len(x.Op)-1]
	}
	switch lhs := stripParens(x.LHS).(type) {
	case *minic.Ident:
		// Only body-declared temporaries are assignable: writing an outer
		// scalar would invalidate the one-shot immediate broadcasts (and
		// reductions have cross-lane dependences the tier cannot honor).
		t, ok := v.temp(lhs.Name)
		if !ok {
			return cost{}, false
		}
		k, err := v.c.staticCost(x.RHS)
		if err != nil {
			return cost{}, false
		}
		r, ok := v.expr(x.RHS)
		if !ok {
			return cost{}, false
		}
		if op == "" {
			if t.intTyped {
				v.emit(cTrunc, t.reg, r, -1, -1, -1)
			} else {
				v.emit(cMov, t.reg, r, -1, -1, -1)
			}
			return cost{k.w + 1, k.b, k.irr}, true
		}
		kind, ok := v.compoundKind(op, t.intTyped, r)
		if !ok {
			return cost{}, false
		}
		v.emit(kind, t.reg, t.reg, r, -1, -1)
		if t.intTyped {
			v.emit(cTrunc, t.reg, t.reg, -1, -1, -1)
		}
		return cost{k.w + 1, k.b, k.irr}, true

	case *minic.IndexExpr:
		k, err := v.c.staticCost(x.RHS)
		if err != nil {
			return cost{}, false
		}
		if op == "" {
			// Plain store: the scalar encoding evaluates the RHS before it
			// touches the destination site, so the site registers (and,
			// at runtime, first-touches) after the RHS's sites.
			r, ok := v.expr(x.RHS)
			if !ok {
				return cost{}, false
			}
			si, ok := v.siteOf(lhs, false)
			if !ok {
				return cost{}, false
			}
			if v.siteInt[si] {
				s := v.newReg()
				v.emit(cTrunc, s, r, -1, -1, -1)
				r = s
			}
			v.emit(cStore, -1, r, -1, -1, si)
			return cost{k.w + 2, k.b + v.siteEB[si], k.irr}, true
		}
		// Compound store: the scalar encoding reads the element first.
		si, ok := v.siteOf(lhs, false)
		if !ok {
			return cost{}, false
		}
		cur := v.view(si)
		r, ok := v.expr(x.RHS)
		if !ok {
			return cost{}, false
		}
		kind, ok := v.compoundKind(op, v.siteInt[si], r)
		if !ok {
			return cost{}, false
		}
		s := v.newReg()
		v.emit(kind, s, cur, r, -1, -1)
		if v.siteInt[si] {
			v.emit(cTrunc, s, s, -1, -1, -1)
		}
		v.emit(cStore, -1, s, -1, -1, si)
		return cost{k.w + 2, k.b + 2*v.siteEB[si], k.irr}, true
	}
	return cost{}, false
}

func (v *colComp) incDec(x *minic.IncDecStmt) (cost, bool) {
	delta := 1.0
	if x.Op == "--" {
		delta = -1
	}
	switch lhs := stripParens(x.X).(type) {
	case *minic.Ident:
		t, ok := v.temp(lhs.Name)
		if !ok {
			return cost{}, false
		}
		// Scalar: OpInc, no truncation.
		v.emit(cAdd, t.reg, t.reg, v.constImm(delta), -1, -1)
		return cost{1, 0, 0}, true
	case *minic.IndexExpr:
		si, ok := v.siteOf(lhs, false)
		if !ok {
			return cost{}, false
		}
		cur := v.view(si)
		s := v.newReg()
		// Scalar: load, add, store — no truncation even for int elements.
		v.emit(cAdd, s, cur, v.constImm(delta), -1, -1)
		v.emit(cStore, -1, s, -1, -1, si)
		return cost{2, 2 * v.siteEB[si], 0}, true
	}
	return cost{}, false
}

// compoundKind maps a compound-assignment operator to its column op,
// using the LHS type for the / dialect like the scalar applyBinOp path.
// Integer division and modulus qualify only with a nonzero constant
// divisor: the scalar path can fault there, and a fault mid-batch would
// leave partial side effects the oracle never produced.
func (v *colComp) compoundKind(op string, intCtx bool, rhs int32) (int32, bool) {
	switch op {
	case "+":
		return cAdd, true
	case "-":
		return cSub, true
	case "*":
		return cMul, true
	case "/":
		if !intCtx {
			return cDivF, true
		}
		if val, ok := v.constOf(rhs); ok && val != 0 {
			return cDivI, true
		}
		return 0, false
	case "%":
		if val, ok := v.constOf(rhs); ok && int64(val) != 0 {
			return cMod, true
		}
		return 0, false
	case "<<":
		return cShl, true
	case ">>":
		return cShr, true
	case "==":
		return cEq, true
	case "!=":
		return cNe, true
	case "<":
		return cLt, true
	case "<=":
		return cLe, true
	case ">":
		return cGt, true
	case ">=":
		return cGe, true
	case "&&":
		return cAndE, true
	case "||":
		return cOrE, true
	}
	return 0, false
}

// expr lowers one expression to a register. Costs are not computed here —
// the statement level charges them through staticCost, which guarantees
// the charge equals the scalar encoding's.
func (v *colComp) expr(e minic.Expr) (int32, bool) {
	switch x := e.(type) {
	case *minic.ParenExpr:
		return v.expr(x.X)
	case *minic.IntLit:
		return v.constImm(float64(x.Value)), true
	case *minic.FloatLit:
		return v.constImm(x.Value), true
	case *minic.SizeofExpr:
		return v.constImm(float64(x.Of.Size())), true
	case *minic.Ident:
		if x.Name == v.ivar {
			return v.iotaReg(), true
		}
		if t, ok := v.temp(x.Name); ok {
			return t.reg, true
		}
		bnd, ok := v.c.lookup(x.Name)
		if !ok || isRefType(bnd.typ) {
			return 0, false
		}
		switch bnd.kind {
		case bindLocal:
			return v.immReg(vimLocal, int32(bnd.slot)), true
		case bindGlobal:
			return v.immReg(vimGlobal, int32(bnd.gidx)), true
		}
		return 0, false
	case *minic.UnaryExpr:
		var kind int32
		switch x.Op {
		case "-":
			kind = cNeg
		case "!":
			kind = cNot
		default:
			return 0, false
		}
		r, ok := v.expr(x.X)
		if !ok {
			return 0, false
		}
		dst := v.newReg()
		v.emit(kind, dst, r, -1, -1, -1)
		return dst, true
	case *minic.IndexExpr:
		si, ok := v.siteOf(x, true)
		if !ok {
			return 0, false
		}
		return v.view(si), true
	case *minic.BinaryExpr:
		return v.binary(x)
	case *minic.CondExpr:
		c0, ok := v.expr(x.Cond)
		if !ok {
			return 0, false
		}
		v.lazy++
		t, ok1 := v.expr(x.Then)
		el, ok2 := v.expr(x.Else)
		v.lazy--
		if !ok1 || !ok2 {
			return 0, false
		}
		dst := v.newReg()
		v.emit(cSel, dst, c0, t, el, -1)
		return dst, true
	case *minic.CallExpr:
		return v.call(x)
	}
	return 0, false
}

func (v *colComp) binary(x *minic.BinaryExpr) (int32, bool) {
	if x.Op == "&&" || x.Op == "||" {
		a, ok := v.expr(x.X)
		if !ok {
			return 0, false
		}
		v.lazy++
		b, ok := v.expr(x.Y)
		v.lazy--
		if !ok {
			return 0, false
		}
		kind := cAndE
		if x.Op == "||" {
			kind = cOrE
		}
		dst := v.newReg()
		v.emit(kind, dst, a, b, -1, -1)
		return dst, true
	}
	intCtx := false
	if t, ok := x.Type().(*minic.Basic); ok && t.IsInteger() {
		intCtx = true
	}
	if x.Op == "%" || (x.Op == "/" && intCtx) {
		// Denominator first, mirroring the scalar fault order; the loop
		// only qualifies when the divisor is a nonzero constant, so no
		// fault is reachable inside a batch.
		b, ok := v.expr(x.Y)
		if !ok {
			return 0, false
		}
		bv, isConst := v.constOf(b)
		if !isConst {
			return 0, false
		}
		var kind int32
		if x.Op == "%" {
			if int64(bv) == 0 {
				return 0, false
			}
			kind = cMod
		} else {
			if bv == 0 {
				return 0, false
			}
			kind = cDivI
		}
		a, ok := v.expr(x.X)
		if !ok {
			return 0, false
		}
		dst := v.newReg()
		v.emit(kind, dst, a, b, -1, -1)
		return dst, true
	}
	a, ok := v.expr(x.X)
	if !ok {
		return 0, false
	}
	b, ok := v.expr(x.Y)
	if !ok {
		return 0, false
	}
	var kind int32
	switch x.Op {
	case "+":
		kind = cAdd
	case "-":
		kind = cSub
	case "*":
		kind = cMul
	case "/":
		kind = cDivF
	case "<<":
		kind = cShl
	case ">>":
		kind = cShr
	case "==":
		kind = cEq
	case "!=":
		kind = cNe
	case "<":
		kind = cLt
	case "<=":
		kind = cLe
	case ">":
		kind = cGt
	case ">=":
		kind = cGe
	default:
		return 0, false
	}
	dst := v.newReg()
	v.emit(kind, dst, a, b, -1, -1)
	return dst, true
}

func (v *colComp) call(x *minic.CallExpr) (int32, bool) {
	if _, isBuiltin := minic.Builtins[x.Fun.Name]; !isBuiltin {
		return 0, false
	}
	bk, ok := builtinKind[x.Fun.Name]
	if !ok {
		return 0, false
	}
	ck := colBuiltin[bk]
	ar := builtinArity[bk]
	if len(x.Args) < ar {
		return 0, false
	}
	// Like the scalar encoding, only the first `arity` arguments are
	// evaluated (surplus ones are charged at the statement level through
	// staticCost, never executed).
	args := make([]int32, ar)
	for i := 0; i < ar; i++ {
		r, ok := v.expr(x.Args[i])
		if !ok {
			return 0, false
		}
		args[i] = r
	}
	dst := v.newReg()
	if ar == 1 {
		v.emit(ck, dst, args[0], -1, -1, -1)
	} else {
		v.emit(ck, dst, args[0], args[1], -1, -1)
	}
	return dst, true
}
