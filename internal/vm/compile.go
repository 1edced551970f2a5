package vm

import (
	"fmt"

	"comp/internal/analysis"
	"comp/internal/interp"
	"comp/internal/minic"
)

// CompileProgram lowers a checked, interp-compiled Program to bytecode.
// It mirrors internal/interp's tree compiler decision for decision: the
// same scoping, the same statically computed cost triples charged at the
// same program points, and the same runtime error positions. Programs it
// cannot express return an error so the caller falls back to the
// tree-walker.
func CompileProgram(p *interp.Program) (*Module, error) {
	c := &comp{
		prog: p,
		file: p.File(),
		mod: &Module{
			Layout: p.Layout(),
			ByName: map[string]int{},
			Main:   -1,
		},
		gidx:  map[string]int{},
		sites: map[*minic.Pragma]*minic.Pragma{},
	}
	// Pre-register every function so calls (including recursion) resolve.
	for _, fd := range c.file.Funcs() {
		if fd.Body == nil {
			continue
		}
		c.mod.ByName[fd.Name] = len(c.mod.Funcs)
		c.mod.Funcs = append(c.mod.Funcs, &Chunk{Name: fd.Name})
	}
	for _, fd := range c.file.Funcs() {
		if fd.Body == nil {
			continue
		}
		if err := c.compileFunc(c.mod.Funcs[c.mod.ByName[fd.Name]], fd); err != nil {
			return nil, err
		}
	}
	// A missing main stays Main = -1: Program.Run faults before it ever
	// dispatches to the engine, so compilation must succeed regardless.
	if mi, ok := c.mod.ByName["main"]; ok {
		c.mod.Main = mi
	}
	for _, ch := range c.mod.Funcs {
		if err := finalizeChunk(ch, len(c.mod.Globals), len(c.mod.Funcs)); err != nil {
			return nil, fmt.Errorf("vm: %s: %w", ch.Name, err)
		}
	}
	return c.mod, nil
}

type bindKind int

const (
	bindLocal bindKind = iota
	bindLocalRef
	bindGlobal
)

type vbind struct {
	kind bindKind
	slot int
	gidx int
	typ  minic.Type
}

type cost struct{ w, b, irr float64 }

func (a cost) zero() bool { return a.w == 0 && a.b == 0 && a.irr == 0 }

type comp struct {
	prog *interp.Program
	file *minic.File
	mod  *Module
	gidx map[string]int
	// sites maps each source pragma to its clause-free copy (see site).
	sites map[*minic.Pragma]*minic.Pragma

	fn       *Chunk
	code     []Instr
	scopes   []map[string]vbind
	loopVars []string
	loops    []*loopCtx
	col      colComp // tryVecLoop's lowering scratch
}

// loopCtx collects break/continue patch sites for the enclosing loop.
type loopCtx struct {
	breaks []int
	conts  []int
}

func (c *comp) errf(pos minic.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("vm: %s: %s", pos, fmt.Sprintf(format, args...))
}

// ---- emission helpers ----

func (c *comp) emit(op Op, a, b int32) int {
	c.code = append(c.code, Instr{Op: op, A: a, B: b})
	return len(c.code) - 1
}

func (c *comp) emitJump(op Op) int { return c.emit(op, -1, 0) }

func (c *comp) patch(at int) { c.code[at].A = int32(len(c.code)) }

func (c *comp) patchTo(at, target int) { c.code[at].A = int32(target) }

func (c *comp) here() int { return len(c.code) }

// markWork reserves a work-charge slot ahead of a statement's evaluation
// code; fillWork patches the final cost in once the expression has been
// compiled (or neutralizes the slot when the cost is zero). This keeps
// the tree-walker's charge-then-evaluate order without index rewriting.
func (c *comp) markWork() int { return c.emit(OpWork, -1, 0) }

func (c *comp) fillWork(mark int, k cost) {
	if k.zero() {
		c.code[mark] = Instr{Op: OpNop}
		return
	}
	c.code[mark].A = c.workIdx(k)
}

func (c *comp) constIdx(v float64) int32 {
	for i, cv := range c.fn.Consts {
		if cv == v {
			return int32(i)
		}
	}
	c.fn.Consts = append(c.fn.Consts, v)
	return int32(len(c.fn.Consts) - 1)
}

func (c *comp) workIdx(k cost) int32 {
	t := WorkTriple{W: k.w, B: k.b, Irr: k.irr}
	for i, w := range c.fn.Works {
		if w == t {
			return int32(i)
		}
	}
	c.fn.Works = append(c.fn.Works, t)
	return int32(len(c.fn.Works) - 1)
}

func (c *comp) emitWork(k cost) {
	if k.zero() {
		return
	}
	c.emit(OpWork, c.workIdx(k), 0)
}

func (c *comp) posIdx(pos minic.Pos) int32 {
	c.fn.Positions = append(c.fn.Positions, pos)
	return int32(len(c.fn.Positions) - 1)
}

// slot returns a global's Layout slot, or -1 when name is not a global.
func (c *comp) slot(name string) int32 {
	if h, ok := c.prog.Global(name); ok {
		return int32(h.Slot())
	}
	return -1
}

func (c *comp) globalIdx(name string) (int32, bool) {
	if i, ok := c.gidx[name]; ok {
		return int32(i), true
	}
	h, ok := c.prog.Global(name)
	if !ok {
		return 0, false
	}
	i := len(c.mod.Globals)
	c.mod.Globals = append(c.mod.Globals, GlobalRef{Name: name, Slot: int32(h.Slot())})
	c.gidx[name] = i
	return int32(i), true
}

// ---- scoping ----

func (c *comp) push() { c.scopes = append(c.scopes, map[string]vbind{}) }
func (c *comp) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *comp) bind(name string, b vbind) { c.scopes[len(c.scopes)-1][name] = b }

func (c *comp) lookup(name string) (vbind, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if b, ok := c.scopes[i][name]; ok {
			return b, true
		}
	}
	if h, ok := c.prog.Global(name); ok {
		gi, _ := c.globalIdx(name)
		return vbind{kind: bindGlobal, gidx: int(gi), typ: h.Type()}, true
	}
	return vbind{}, false
}

func (c *comp) newSlot() int {
	s := c.fn.NumSlots
	c.fn.NumSlots++
	return s
}

func (c *comp) newRefSlot() int {
	s := c.fn.RefSlots
	c.fn.RefSlots++
	return s
}

func isRefType(t minic.Type) bool { return minic.ElemOf(t) != nil }

func isIntType(t minic.Type) bool {
	b, ok := t.(*minic.Basic)
	return ok && b.IsInteger()
}

// ---- functions ----

func (c *comp) compileFunc(ch *Chunk, fd *minic.FuncDecl) error {
	c.fn = ch
	c.code = nil
	c.push()
	defer c.pop()
	for _, p := range fd.Params {
		if isRefType(p.Type) {
			slot := c.newRefSlot()
			ch.Params = append(ch.Params, ParamSlot{Slot: slot, IsRef: true})
			c.bind(p.Name, vbind{kind: bindLocalRef, slot: slot, typ: p.Type})
		} else {
			slot := c.newSlot()
			ch.Params = append(ch.Params, ParamSlot{Slot: slot})
			c.bind(p.Name, vbind{kind: bindLocal, slot: slot, typ: p.Type})
		}
	}
	if err := c.block(fd.Body); err != nil {
		return err
	}
	c.emit(OpRet, 0, 0)
	ch.Code = c.code
	c.code = nil
	return nil
}

func (c *comp) block(b *minic.Block) error {
	c.push()
	defer c.pop()
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// ---- statements ----

func (c *comp) stmt(s minic.Stmt) error {
	switch x := s.(type) {
	case *minic.Block:
		return c.block(x)
	case *minic.DeclStmt:
		return c.declStmt(x)
	case *minic.ExprStmt:
		mark := c.markWork()
		k, err := c.expr(x.X)
		if err != nil {
			return err
		}
		c.fillWork(mark, k)
		c.emit(OpPop, 0, 0)
		return nil
	case *minic.AssignStmt:
		return c.assign(x)
	case *minic.IncDecStmt:
		return c.incDec(x)
	case *minic.IfStmt:
		return c.ifStmt(x)
	case *minic.WhileStmt:
		return c.whileStmt(x)
	case *minic.ForStmt:
		return c.forStmt(x)
	case *minic.ReturnStmt:
		if x.X == nil {
			c.emit(OpConst, c.constIdx(0), 0)
			c.emit(OpSetRet, 0, 0)
			c.emit(OpRet, 0, 0)
			return nil
		}
		mark := c.markWork()
		k, err := c.expr(x.X)
		if err != nil {
			return err
		}
		c.fillWork(mark, k)
		c.emit(OpSetRet, 0, 0)
		c.emit(OpRet, 0, 0)
		return nil
	case *minic.BreakStmt:
		if len(c.loops) == 0 {
			return c.errf(x.Pos(), "break outside loop")
		}
		lc := c.loops[len(c.loops)-1]
		lc.breaks = append(lc.breaks, c.emitJump(OpJmp))
		return nil
	case *minic.ContinueStmt:
		if len(c.loops) == 0 {
			return c.errf(x.Pos(), "continue outside loop")
		}
		lc := c.loops[len(c.loops)-1]
		lc.conts = append(lc.conts, c.emitJump(OpJmp))
		return nil
	case *minic.PragmaStmt:
		return c.pragmaStmt(x)
	}
	return c.errf(s.Pos(), "unsupported statement %T", s)
}

func (c *comp) declStmt(d *minic.DeclStmt) error {
	vd := d.Decl
	if arr, ok := vd.Type.(*minic.Array); ok {
		if arr.Len == nil {
			return c.errf(vd.Pos(), "local array %s needs a length", vd.Name)
		}
		// Length expression is evaluated but, like the tree-walker, never
		// charged as work.
		if _, err := c.expr(arr.Len); err != nil {
			return err
		}
		slot := c.newRefSlot()
		c.bind(vd.Name, vbind{kind: bindLocalRef, slot: slot, typ: vd.Type})
		c.fn.NewArrs = append(c.fn.NewArrs, NewArrDesc{
			Name: vd.Name, Elem: arr.Elem, Slot: int32(slot), Pos: c.posIdx(vd.Pos()),
		})
		c.emit(OpNewArr, int32(len(c.fn.NewArrs)-1), 0)
		return nil
	}
	if isRefType(vd.Type) {
		slot := c.newRefSlot()
		c.bind(vd.Name, vbind{kind: bindLocalRef, slot: slot, typ: vd.Type})
		if vd.Init == nil {
			c.emit(OpRefNull, 0, 0)
			c.emit(OpRefStoreL, int32(slot), 0)
			return nil
		}
		if err := c.ref(vd.Init, minic.ElemOf(vd.Type)); err != nil {
			return err
		}
		c.emit(OpRefStoreL, int32(slot), 0)
		return nil
	}
	slot := c.newSlot()
	c.bind(vd.Name, vbind{kind: bindLocal, slot: slot, typ: vd.Type})
	if vd.Init == nil {
		c.emit(OpZero, int32(slot), 0)
		return nil
	}
	mark := c.markWork()
	k, err := c.expr(vd.Init)
	if err != nil {
		return err
	}
	c.fillWork(mark, k)
	if isIntType(vd.Type) {
		c.emit(OpStoreT, int32(slot), 0)
	} else {
		c.emit(OpStore, int32(slot), 0)
	}
	return nil
}

func (c *comp) assign(x *minic.AssignStmt) error {
	// Pointer assignment: p = malloc(...), p = q, p = 0.
	if id, ok := x.LHS.(*minic.Ident); ok {
		if bnd, found := c.lookup(id.Name); found && isRefType(bnd.typ) {
			if x.Op != "=" {
				return c.errf(x.Pos(), "compound assignment to pointer %s", id.Name)
			}
			switch bnd.kind {
			case bindLocalRef:
				if err := c.ref(x.RHS, minic.ElemOf(bnd.typ)); err != nil {
					return err
				}
				c.emit(OpRefStoreL, int32(bnd.slot), 0)
				return nil
			case bindGlobal:
				// The tree-walker checks the on-device rebind before
				// evaluating the RHS; preserve that error order.
				c.emit(OpDevChk, int32(bnd.gidx), c.posIdx(x.Pos()))
				if err := c.ref(x.RHS, minic.ElemOf(bnd.typ)); err != nil {
					return err
				}
				c.emit(OpRefStoreG, int32(bnd.gidx), 0)
				return nil
			}
		}
	}

	lv, err := c.lvalue(x.LHS)
	if err != nil {
		return err
	}
	op := ""
	if x.Op != "=" {
		op = x.Op[:len(x.Op)-1]
	}
	mark := c.markWork()
	if op == "" {
		k, err := c.expr(x.RHS)
		if err != nil {
			return err
		}
		c.fillWork(mark, cost{k.w + lv.w + 1, k.b + lv.b, k.irr + lv.irr})
		if lv.intTyped {
			c.emit(OpTrunc, 0, 0)
		}
		return lv.emitStore(c)
	}
	// Compound: read, combine, write — the lvalue address is evaluated
	// twice, and its bytes charged twice, exactly like the tree-walker.
	if err := lv.emitLoad(c); err != nil {
		return err
	}
	k, err := c.expr(x.RHS)
	if err != nil {
		return err
	}
	c.fillWork(mark, cost{k.w + lv.w + 1, k.b + 2*lv.b, k.irr + 2*lv.irr})
	if err := c.emitBinOp(op, lv.intTyped, -1); err != nil {
		return c.errf(x.Pos(), "unknown operator %q", op)
	}
	if lv.intTyped {
		c.emit(OpTrunc, 0, 0)
	}
	return lv.emitStore(c)
}

// emitBinOp emits one binary operator. posIdx < 0 selects the pos-less
// runtime errors and eager logical ops of the tree-walker's compound
// assignment path (applyBinOp).
func (c *comp) emitBinOp(op string, intCtx bool, posIdx int32) error {
	switch op {
	case "+":
		c.emit(OpAdd, 0, 0)
	case "-":
		c.emit(OpSub, 0, 0)
	case "*":
		c.emit(OpMul, 0, 0)
	case "/":
		if intCtx {
			c.emit(OpDivI, posIdx, 0)
		} else {
			c.emit(OpDivF, 0, 0)
		}
	case "%":
		c.emit(OpMod, posIdx, 0)
	case "<<":
		c.emit(OpShl, 0, 0)
	case ">>":
		c.emit(OpShr, 0, 0)
	case "==":
		c.emit(OpEq, 0, 0)
	case "!=":
		c.emit(OpNe, 0, 0)
	case "<":
		c.emit(OpLt, 0, 0)
	case "<=":
		c.emit(OpLe, 0, 0)
	case ">":
		c.emit(OpGt, 0, 0)
	case ">=":
		c.emit(OpGe, 0, 0)
	case "&&":
		c.emit(OpAndE, 0, 0)
	case "||":
		c.emit(OpOrE, 0, 0)
	default:
		return fmt.Errorf("unknown operator %q", op)
	}
	return nil
}

func (c *comp) incDec(x *minic.IncDecStmt) error {
	lv, err := c.lvalue(x.X)
	if err != nil {
		return err
	}
	delta := int32(1)
	if x.Op == "--" {
		delta = -1
	}
	c.emitWork(cost{lv.w + 1, 2 * lv.b, 2 * lv.irr})
	if lv.kind == lvLocal {
		c.emit(OpInc, int32(lv.slot), delta)
		return nil
	}
	if err := lv.emitLoad(c); err != nil {
		return err
	}
	c.emit(OpConst, c.constIdx(float64(delta)), 0)
	c.emit(OpAdd, 0, 0)
	return lv.emitStore(c)
}

func (c *comp) ifStmt(x *minic.IfStmt) error {
	mark := c.markWork()
	k, err := c.expr(x.Cond)
	if err != nil {
		return err
	}
	c.fillWork(mark, k)
	jz := c.emitJump(OpJz)
	if err := c.block(x.Then); err != nil {
		return err
	}
	if x.Else == nil {
		c.patch(jz)
		return nil
	}
	jend := c.emitJump(OpJmp)
	c.patch(jz)
	if err := c.stmt(x.Else); err != nil {
		return err
	}
	c.patch(jend)
	return nil
}

func (c *comp) whileStmt(x *minic.WhileStmt) error {
	g := c.newSlot()
	pos := c.posIdx(x.Pos())
	c.emit(OpZero, int32(g), 0)
	head := c.here()
	c.emit(OpGuardW, int32(g), pos)
	mark := c.markWork()
	k, err := c.expr(x.Cond)
	if err != nil {
		return err
	}
	c.fillWork(mark, k)
	jz := c.emitJump(OpJz)
	lc := &loopCtx{}
	c.loops = append(c.loops, lc)
	err = c.block(x.Body)
	c.loops = c.loops[:len(c.loops)-1]
	if err != nil {
		return err
	}
	c.emit(OpJmp, int32(head), 0)
	c.patch(jz)
	for _, p := range lc.breaks {
		c.patch(p)
	}
	// continue in a while loop re-enters at the guard (next iteration).
	for _, p := range lc.conts {
		c.patchTo(p, head)
	}
	return nil
}

func (c *comp) forStmt(fs *minic.ForStmt) error {
	var offload, omp *minic.Pragma
	for _, p := range fs.Pragmas {
		switch p.Kind {
		case minic.PragmaOffload:
			offload = p
		case minic.PragmaOmpParallelFor:
			omp = p
		}
	}

	c.push()
	defer c.pop()

	// Static vectorizability for parallel loops; the columnar tier reuses
	// the analysis below.
	vec := false
	var info *analysis.LoopInfo
	if omp != nil {
		if i, aerr := analysis.Analyze(fs, c.file); aerr == nil {
			info, vec = i, i.Vectorizable()
		}
	}

	pos := fs.Pos()
	var offDesc *OffloadDesc
	if offload != nil {
		offDesc = &OffloadDesc{Pragma: c.site(offload), Pos: pos, Chunk: c.fn}
		c.fn.Offloads = append(c.fn.Offloads, offDesc)
		c.emit(OpOffEnter, int32(len(c.fn.Offloads)-1), 0)
	}
	if omp != nil {
		c.fn.Pars = append(c.fn.Pars, ParDesc{Vec: vec})
		c.emit(OpParEnter, int32(len(c.fn.Pars)-1), 0)
	}

	if fs.Init != nil {
		if err := c.stmt(fs.Init); err != nil {
			return err
		}
	}
	g := c.newSlot()
	pi := c.posIdx(pos)
	c.emit(OpZero, int32(g), 0)
	// Columnar tier: loops whose bodies reduce to element-wise arithmetic
	// get a fused vector op ahead of the scalar head. At runtime it
	// fast-forwards whole batches and falls through; the scalar loop below
	// is unchanged and still owns ragged tails and faults.
	if fs.Cond != nil && fs.Post != nil && fs.Body != nil {
		if d := c.tryVecLoop(fs, info, omp != nil, g); d != nil {
			c.fn.VecLoops = append(c.fn.VecLoops, d)
			c.emit(OpVecLoop, int32(len(c.fn.VecLoops)-1), 0)
		}
	}
	guardOp := OpGuardF
	if omp != nil {
		guardOp = OpGuardPar
	}
	head := c.here()
	c.emit(guardOp, int32(g), pi)
	jz := -1
	if fs.Cond != nil {
		mark := c.markWork()
		k, err := c.expr(fs.Cond)
		if err != nil {
			return err
		}
		c.fillWork(mark, k)
		jz = c.emitJump(OpJz)
	}
	if omp != nil {
		c.emit(OpIterTick, 0, 0)
	}

	ivar := loopIndexName(fs)
	c.loopVars = append(c.loopVars, ivar)
	lc := &loopCtx{}
	c.loops = append(c.loops, lc)
	err := c.block(fs.Body)
	c.loops = c.loops[:len(c.loops)-1]
	c.loopVars = c.loopVars[:len(c.loopVars)-1]
	if err != nil {
		return err
	}

	// continue lands on the post statement.
	post := c.here()
	for _, p := range lc.conts {
		c.patchTo(p, post)
	}
	if fs.Post != nil {
		if err := c.stmt(fs.Post); err != nil {
			return err
		}
	}
	c.emit(OpJmp, int32(head), 0)
	exit := c.here()
	if jz >= 0 {
		c.patchTo(jz, exit)
	}
	for _, p := range lc.breaks {
		c.patchTo(p, exit)
	}
	if omp != nil {
		c.emit(OpParExit, 0, 0)
	}
	if offload != nil {
		// Specs compile in the loop's scope (after the init declaration),
		// matching the tree-walker's compile order.
		specs, err := c.compileSpecs(offload)
		if err != nil {
			return err
		}
		offDesc.Specs = specs
		c.emit(OpOffExit, 0, 0)
	}
	return nil
}

// loopIndexName extracts the induction variable name syntactically.
func loopIndexName(fs *minic.ForStmt) string {
	switch init := fs.Init.(type) {
	case *minic.AssignStmt:
		if id, ok := init.LHS.(*minic.Ident); ok {
			return id.Name
		}
	case *minic.DeclStmt:
		return init.Decl.Name
	}
	return ""
}

func (c *comp) pragmaStmt(x *minic.PragmaStmt) error {
	p := x.P
	switch p.Kind {
	case minic.PragmaOffloadWait:
		c.fn.Waits = append(c.fn.Waits, p.Wait)
		c.emit(OpWait, int32(len(c.fn.Waits)-1), 0)
		return nil
	case minic.PragmaOffloadTransfer:
		specs, err := c.compileSpecs(p)
		if err != nil {
			return err
		}
		c.fn.Transfers = append(c.fn.Transfers, &TransferDesc{
			Pragma: c.site(p), Specs: specs, Pos: x.Pos(), Chunk: c.fn,
		})
		c.emit(OpTransfer, int32(len(c.fn.Transfers)-1), 0)
		return nil
	}
	return c.errf(x.Pos(), "pragma %s not valid as a statement", p.Kind)
}

// ---- lvalues ----

type lvKind int

const (
	lvLocal lvKind = iota
	lvGlobal
	lvIndex
)

// lval captures an assignable location: how to emit its load and store
// code, its access cost, and whether stores truncate to integer.
type lval struct {
	kind      lvKind
	slot      int
	gidx      int32
	w, b, irr float64
	intTyped  bool
	// for lvIndex: the access site pieces.
	baseID *minic.Ident
	index  minic.Expr
	acc    int32 // access desc index
	refPos minic.Pos
}

func (lv *lval) emitLoad(c *comp) error {
	switch lv.kind {
	case lvLocal:
		c.emit(OpLoad, int32(lv.slot), 0)
	case lvGlobal:
		c.emit(OpLoadG, lv.gidx, 0)
	case lvIndex:
		if err := c.emitRefIdent(lv.baseID, lv.refPos); err != nil {
			return err
		}
		if _, err := c.expr(lv.index); err != nil {
			return err
		}
		c.emit(OpLoadIdx, lv.acc, 0)
	}
	return nil
}

func (lv *lval) emitStore(c *comp) error {
	switch lv.kind {
	case lvLocal:
		c.emit(OpStore, int32(lv.slot), 0)
	case lvGlobal:
		c.emit(OpStoreG, lv.gidx, 0)
	case lvIndex:
		if err := c.emitRefIdent(lv.baseID, lv.refPos); err != nil {
			return err
		}
		if _, err := c.expr(lv.index); err != nil {
			return err
		}
		c.emit(OpStoreIdx, lv.acc, 0)
	}
	return nil
}

func (c *comp) lvalue(e minic.Expr) (*lval, error) {
	switch x := e.(type) {
	case *minic.ParenExpr:
		return c.lvalue(x.X)
	case *minic.Ident:
		bnd, ok := c.lookup(x.Name)
		if !ok {
			return nil, c.errf(x.Pos(), "undefined %s", x.Name)
		}
		switch bnd.kind {
		case bindLocal:
			return &lval{kind: lvLocal, slot: bnd.slot, intTyped: isIntType(bnd.typ)}, nil
		case bindGlobal:
			if isRefType(bnd.typ) {
				return nil, c.errf(x.Pos(), "cannot assign scalar to array %s", x.Name)
			}
			return &lval{kind: lvGlobal, gidx: int32(bnd.gidx), intTyped: isIntType(bnd.typ)}, nil
		}
		return nil, c.errf(x.Pos(), "cannot assign to pointer %s here", x.Name)
	case *minic.UnaryExpr:
		if x.Op == "*" {
			idx := &minic.IndexExpr{X: x.X, Index: &minic.IntLit{Value: 0}}
			return c.indexLValue(idx, "")
		}
	case *minic.IndexExpr:
		return c.indexLValue(x, "")
	case *minic.MemberExpr:
		if ie, ok := x.X.(*minic.IndexExpr); ok {
			return c.indexLValue(ie, x.Field)
		}
	}
	return nil, c.errf(e.Pos(), "unsupported assignment target")
}

func (c *comp) indexLValue(x *minic.IndexExpr, field string) (*lval, error) {
	site, err := c.accessSite(x, field)
	if err != nil {
		return nil, err
	}
	idxCost, err := c.staticCost(x.Index)
	if err != nil {
		return nil, err
	}
	irr := 0.0
	if site.irregular {
		irr = site.elemBytes
	}
	intTyped := false
	if t := x.Type(); t != nil {
		intTyped = isIntType(t)
	}
	return &lval{
		kind:     lvIndex,
		w:        idxCost.w + 1,
		b:        idxCost.b + site.elemBytes,
		irr:      idxCost.irr + irr,
		intTyped: intTyped,
		baseID:   site.baseID,
		index:    x.Index,
		acc:      site.accIdx,
		refPos:   x.Pos(),
	}, nil
}

// ---- array access sites ----

type siteInfo struct {
	baseID    *minic.Ident
	bnd       vbind
	elem      minic.Type
	elemBytes float64
	fieldOff  int
	irregular bool
	isGlobal  bool
	accIdx    int32
}

func (c *comp) accessSite(x *minic.IndexExpr, field string) (*siteInfo, error) {
	id, ok := x.X.(*minic.Ident)
	if !ok {
		if p, isParen := x.X.(*minic.ParenExpr); isParen {
			if id2, ok2 := p.X.(*minic.Ident); ok2 {
				id = id2
				ok = true
			}
		}
	}
	if !ok {
		return nil, c.errf(x.Pos(), "unsupported array base expression")
	}
	bnd, found := c.lookup(id.Name)
	if !found {
		return nil, c.errf(id.Pos(), "undefined %s", id.Name)
	}
	if !isRefType(bnd.typ) {
		return nil, c.errf(id.Pos(), "%s is not an array", id.Name)
	}
	elem := minic.ElemOf(bnd.typ)
	elemBytes := float64(elem.Size())
	fieldOff := -1
	if field != "" {
		st, ok := elem.(*minic.StructType)
		if !ok {
			return nil, c.errf(x.Pos(), "%s is not a struct array", id.Name)
		}
		f := st.Field(field)
		if f == nil {
			return nil, c.errf(x.Pos(), "struct %s has no field %s", st.Name, field)
		}
		off := 0
		for _, sf := range st.Fields {
			if sf.Name == field {
				break
			}
			off++
		}
		fieldOff = off
		elemBytes = float64(f.Type.Size())
	}
	// Member walks over struct arrays (AoS) are charged as irregular
	// traffic alongside gathered/strided subscripts, like the tree-walker.
	irregular := c.classifySite(x.Index) || field != ""
	isGlobal := bnd.kind == bindGlobal
	gidx := int32(-1)
	if isGlobal {
		gidx = int32(bnd.gidx)
	}
	posIdx := c.posIdx(x.Pos())
	c.fn.Accesses = append(c.fn.Accesses, Access{
		FieldOff: int32(fieldOff),
		IsGlobal: isGlobal,
		GIdx:     gidx,
		Pos:      posIdx,
		RefPos:   posIdx,
	})
	return &siteInfo{
		baseID:    id,
		bnd:       bnd,
		elem:      elem,
		elemBytes: elemBytes,
		fieldOff:  fieldOff,
		irregular: irregular,
		isGlobal:  isGlobal,
		accIdx:    int32(len(c.fn.Accesses) - 1),
	}, nil
}

// emitRefIdent pushes the array bound to an identifier, reporting
// nil-pointer/missing-storage faults at pos (the tree-walker uses the
// enclosing index expression's position for element accesses and the
// identifier's own position in pointer contexts).
func (c *comp) emitRefIdent(id *minic.Ident, pos minic.Pos) error {
	bnd, ok := c.lookup(id.Name)
	if !ok {
		return c.errf(id.Pos(), "undefined %s", id.Name)
	}
	switch bnd.kind {
	case bindLocalRef:
		c.fn.RefLs = append(c.fn.RefLs, RefLDesc{Name: id.Name, Pos: c.posIdx(pos)})
		c.emit(OpRefL, int32(bnd.slot), int32(len(c.fn.RefLs)-1))
		return nil
	case bindGlobal:
		c.emit(OpRefG, int32(bnd.gidx), c.posIdx(pos))
		return nil
	}
	return c.errf(id.Pos(), "%s is not a pointer or array", id.Name)
}

// classifySite decides whether an access site counts as irregular traffic.
func (c *comp) classifySite(idx minic.Expr) bool {
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

func (c *comp) innermostLoopVar() string {
	if len(c.loopVars) == 0 {
		return ""
	}
	return c.loopVars[len(c.loopVars)-1]
}
