package interp

import (
	"bytes"
	"fmt"

	"comp/internal/minic"
)

// Program is a compiled MiniC program ready to execute. Its global
// storage, device memory and printf output are per-Program state; the
// global Layout is shared, read-only, with every instance made from it
// (NewInstance).
type Program struct {
	file  *minic.File
	check *minic.CheckResult

	layout  *Layout
	globals []gvar // indexed like layout.globals
	funcs   map[string]*cfunc

	// Device-side memory (one coprocessor).
	devArr  map[string]*Array
	devCell map[string]*Cell

	out bytes.Buffer

	// sharedAllocs counts offload_shared_malloc calls (Table III's
	// "dynamic shared allocations").
	sharedAllocs int64

	// engine, when set, replaces the tree-walker for Run (internal/vm);
	// engineErr records why the engine factory declined this program.
	engine    Engine
	engineErr error

	// loopBudget caps total loop iterations per Run (0 = unlimited);
	// enforced identically by the tree-walker and engines. See
	// SetLoopBudget.
	loopBudget int64
}

// Layout is the compact, read-only description of a compiled program's
// globals: names, types, initial scalar values and fixed array lengths.
// It holds no function bodies and no storage, so one Layout serves any
// number of Program instances at once.
type Layout struct {
	globals []global // declaration order
	index   map[string]int
	// mainErr is the error Run reports before executing anything: a
	// missing or parameterized main.
	mainErr error
}

// global is one global variable's static description.
type global struct {
	name    string
	typ     minic.Type
	elem    minic.Type // element type for arrays/pointers, nil for scalars
	arrayly bool
	shared  bool
	slot    int // index in Layout.globals
	init    float64
	// length is the element count of a fixed-size array; sized is false
	// for scalars and for pointers, which stay nil until malloc'd or
	// injected.
	length int64
	sized  bool
	// aliased marks a global that some pointer local is assigned from: a
	// kernel can then keep a reference to its device buffer past the
	// buffer's free, so a freed buffer of this global is never recycled.
	aliased bool
}

// gvar is one global's storage in one Program. It stays four words: every
// request instance allocates one per global.
type gvar struct {
	*global
	cell Cell
	// arr is the array storage; pendingArr marks a fixed-size array whose
	// zeroed storage is due but not yet allocated: Reset defers it so an
	// input that Setup injects (SetArray) replaces nothing, and the first
	// read allocates it.
	arr *Array
	// freed is the device buffer this global last freed in the current
	// run, kept for AllocDevBuf to recycle; Reset drops it.
	freed *Array
}

// pendingArr is the storage of a fixed-size array not yet allocated.
var pendingArr = new(Array)

// storage returns the global's array storage, allocating a pending
// fixed-size array on first use.
func (g *gvar) storage() *Array {
	if g.arr == pendingArr {
		g.allocate()
	}
	return g.arr
}

// allocate is the cold half of storage, kept out of line so storage
// inlines into the engines' array accesses.
//
//go:noinline
func (g *gvar) allocate() {
	g.arr = NewArrayFor(g.name, g.elem, g.length)
}

// setStorage rebinds the global's array storage.
func (g *gvar) setStorage(a *Array) { g.arr = a }

// Compile parses, checks, and compiles a MiniC source text. The process
// default engine factory (SetDefaultEngine) picks its execution engine.
func Compile(src string) (*Program, error) {
	return CompileWith(src, defaultEngineFactory())
}

// CompileWith is Compile with an explicit engine factory in place of the
// process default; nil selects the tree-walker.
func CompileWith(src string, mk EngineFactory) (*Program, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return compileFile(f, mk)
}

// CompileFile checks and compiles a parsed file.
func CompileFile(f *minic.File) (*Program, error) {
	return compileFile(f, defaultEngineFactory())
}

func compileFile(f *minic.File, mk EngineFactory) (*Program, error) {
	res := minic.Check(f)
	if err := res.Err(); err != nil {
		return nil, err
	}
	p := &Program{
		file:    f,
		check:   res,
		layout:  &Layout{index: map[string]int{}},
		funcs:   map[string]*cfunc{},
		devArr:  map[string]*Array{},
		devCell: map[string]*Cell{},
	}
	c := &compiler{prog: p}
	if err := c.compile(); err != nil {
		return nil, err
	}
	if err := p.layout.resolve(f, p.funcs); err != nil {
		return nil, err
	}
	p.initGlobals()
	if mk != nil {
		if eng, err := mk(p); err != nil {
			p.engineErr = err // fall back to the tree-walker
		} else {
			p.engine = eng
		}
	}
	return p, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// NewInstance returns a state-only Program over l that executes on e,
// which must be an engine built for a program with this layout (the VM
// checks). The instance carries no AST and no tree-walker code: File
// returns nil and Run needs the engine. Its globals are unallocated until
// the first Reset, which every run must start with (the scheduler and
// runtime.RunWithSetup both do).
func NewInstance(l *Layout, e Engine) *Program {
	p := &Program{layout: l, globals: make([]gvar, len(l.globals)), engine: e}
	for i := range p.globals {
		p.globals[i].global = &l.globals[i]
	}
	return p
}

// Layout returns the program's global layout, shared with every instance
// made from it.
func (p *Program) Layout() *Layout { return p.layout }

// add registers one global declaration (sema has rejected redeclared
// names).
func (l *Layout) add(vd *minic.VarDecl) {
	g := global{name: vd.Name, typ: vd.Type, shared: vd.Shared, slot: len(l.globals)}
	if el := minic.ElemOf(vd.Type); el != nil {
		g.arrayly = true
		g.elem = el
	}
	l.index[vd.Name] = g.slot
	l.globals = append(l.globals, g)
}

// resolve evaluates the constant scalar initializers and array lengths
// and records whether main is runnable.
func (l *Layout) resolve(f *minic.File, funcs map[string]*cfunc) error {
	for _, d := range f.Decls {
		vd, ok := d.(*minic.VarDecl)
		if !ok {
			continue
		}
		g := &l.globals[l.index[vd.Name]]
		if !g.arrayly {
			if vd.Init != nil {
				v, ok := constFloat(vd.Init)
				if !ok {
					return fmt.Errorf("interp: global %s initializer must be constant", g.name)
				}
				g.init = v
			}
			continue
		}
		if arr, ok := g.typ.(*minic.Array); ok && arr.Len != nil {
			n, ok := constIntExpr(arr.Len)
			if !ok {
				return fmt.Errorf("interp: global array %s needs a constant length", g.name)
			}
			if n < 0 {
				return fmt.Errorf("interp: global array %s has negative length %d", g.name, n)
			}
			g.length, g.sized = n, true
		}
	}
	switch main := funcs["main"]; {
	case main == nil:
		l.mainErr = fmt.Errorf("interp: program has no main function")
	case len(main.params) > 0:
		l.mainErr = fmt.Errorf("interp: main takes no parameters")
	}
	return nil
}

// initGlobals sets scalars to their initializers and fixed-size arrays
// to fresh zeroed storage, allocated on first use, and drops the freed
// device buffers.
func (p *Program) initGlobals() {
	for i := range p.globals {
		g := &p.globals[i]
		g.cell.V = g.init
		g.arr = nil
		if g.sized {
			g.arr = pendingArr
		}
		g.freed = nil
	}
}

// allocGlobals allocates every pending array before a run.
func (p *Program) allocGlobals() {
	for i := range p.globals {
		p.globals[i].storage()
	}
}

// lookup returns a global's storage by name, or nil.
func (p *Program) lookup(name string) *gvar {
	if i, ok := p.layout.index[name]; ok {
		return &p.globals[i]
	}
	return nil
}

// Reset zeroes global state: fixed-size arrays get fresh zeroed storage on
// first use, scalars are re-initialized, device memory (with the freed
// device buffers kept for recycling) and captured output are cleared. It
// lets one compiled program run multiple times from a clean slate, and
// keeps nothing of one run's device memory alive into the next.
func (p *Program) Reset() error {
	if p.devArr == nil {
		p.devArr = map[string]*Array{}
		p.devCell = map[string]*Cell{}
	} else {
		clear(p.devArr)
		clear(p.devCell)
	}
	p.out.Reset()
	p.sharedAllocs = 0
	p.initGlobals()
	return nil
}

// Run executes main() against the backend. Runtime faults (device OOM,
// missing device data, bounds) are returned as *RuntimeError.
func (p *Program) Run(b Backend) (err error) {
	if err := p.layout.mainErr; err != nil {
		return err
	}
	p.allocGlobals()
	if p.engine != nil {
		return p.engine.Run(p, b)
	}
	if p.funcs == nil {
		return fmt.Errorf("interp: program instance has no engine")
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	env := &Env{p: p, backend: b, work: &Work{}}
	if p.loopBudget > 0 {
		env.budgetOn = true
		env.budget = p.loopBudget
	}
	env.call(p.funcs["main"], nil, nil)
	// Flush trailing host work.
	if !env.work.Zero() {
		b.HostCompute(*env.work)
		*env.work = Work{}
	}
	return nil
}

// Output returns everything printf wrote.
func (p *Program) Output() string { return p.out.String() }

// SharedAllocs returns the number of offload_shared_malloc calls executed.
func (p *Program) SharedAllocs() int64 { return p.sharedAllocs }

// Scalar returns a global scalar's current value.
func (p *Program) Scalar(name string) (float64, error) {
	g := p.lookup(name)
	if g == nil || g.arrayly {
		return 0, fmt.Errorf("interp: no scalar global %q", name)
	}
	return g.cell.V, nil
}

// SetScalar stores a global scalar, for input injection.
func (p *Program) SetScalar(name string, v float64) error {
	g := p.lookup(name)
	if g == nil || g.arrayly {
		return fmt.Errorf("interp: no scalar global %q", name)
	}
	g.cell.V = v
	return nil
}

// ArrayData returns the backing data of a global array (host side).
func (p *Program) ArrayData(name string) ([]float64, error) {
	g := p.lookup(name)
	if g == nil || !g.arrayly || g.storage() == nil {
		return nil, fmt.Errorf("interp: no allocated array global %q", name)
	}
	return g.arr.Data, nil
}

// SetArray replaces a global array/pointer's storage with the given data
// (one float per element for scalar arrays). The element layout comes from
// the declared type.
func (p *Program) SetArray(name string, data []float64) error {
	g := p.lookup(name)
	if g == nil || !g.arrayly {
		return fmt.Errorf("interp: no array global %q", name)
	}
	fields := 1
	var fieldOff map[string]int
	if st, ok := g.elem.(*minic.StructType); ok {
		fields = len(st.Fields)
		fieldOff = map[string]int{}
		for i, fl := range st.Fields {
			fieldOff[fl.Name] = i
		}
	}
	if len(data)%fields != 0 {
		return fmt.Errorf("interp: data length %d not a multiple of %d fields", len(data), fields)
	}
	g.setStorage(&Array{Name: name, Data: data, Fields: fields, FieldOff: fieldOff, ElemBytes: g.elem.Size()})
	return nil
}

// DeviceArray returns a device buffer's data, or nil if absent; tests use
// it to assert transfer semantics.
func (p *Program) DeviceArray(name string) []float64 {
	if a := p.devArr[name]; a != nil {
		return a.Data
	}
	return nil
}

// File returns the compiled file (for transforms and reporting); nil for
// an instance.
func (p *Program) File() *minic.File { return p.file }

func constIntExpr(e minic.Expr) (int64, bool) {
	v, ok := constFloat(e)
	if !ok {
		return 0, false
	}
	return int64(v), true
}

func constFloat(e minic.Expr) (float64, bool) {
	switch x := e.(type) {
	case *minic.IntLit:
		return float64(x.Value), true
	case *minic.FloatLit:
		return x.Value, true
	case *minic.ParenExpr:
		return constFloat(x.X)
	case *minic.UnaryExpr:
		if x.Op == "-" {
			v, ok := constFloat(x.X)
			return -v, ok
		}
	case *minic.BinaryExpr:
		a, ok1 := constFloat(x.X)
		b, ok2 := constFloat(x.Y)
		if ok1 && ok2 {
			switch x.Op {
			case "+":
				return a + b, true
			case "-":
				return a - b, true
			case "*":
				return a * b, true
			case "/":
				if b != 0 {
					return a / b, true
				}
			}
		}
	}
	return 0, false
}
