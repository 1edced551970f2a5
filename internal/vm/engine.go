package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"comp/internal/interp"
)

// Engine executes a compiled Module as a drop-in replacement for the
// tree-walker. It holds no program state: each Run takes a machine from
// machFree, cleared of any earlier run, over the Program it is handed, so
// one Engine serves the program it was compiled from and every instance
// of that program's Layout, across Reset/Run cycles and from concurrent
// goroutines. Loops that qualified at compile time run through the
// columnar batch tier (OpVecLoop).
type Engine struct {
	mod *Module
	// scalar turns OpVecLoop into a no-op (NewScalarEngine); the bytecode
	// is identical either way.
	scalar bool
	// vecRuns counts the batches the columnar tier ran, for tests.
	vecRuns atomic.Int64
}

// NewEngine compiles a Program to bytecode.
func NewEngine(p *interp.Program) (*Engine, error) {
	mod, err := CompileProgram(p)
	if err != nil {
		return nil, err
	}
	return &Engine{mod: mod}, nil
}

// NewScalarEngine is NewEngine with the columnar tier off: every loop runs
// as scalar bytecode. It exists for the differential tests and the
// columnar-vs-scalar benchmark report; nothing else selects it.
func NewScalarEngine(p *interp.Program) (*Engine, error) {
	e, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	e.scalar = true
	return e, nil
}

// Factory adapts NewEngine to interp.EngineFactory for SetDefaultEngine.
func Factory(p *interp.Program) (interp.Engine, error) {
	e, err := NewEngine(p)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// factoryFor returns the engine factory behind an exec mode: Factory for
// "vm", nil (the tree-walker) for "interp".
func factoryFor(mode string) (interp.EngineFactory, error) {
	switch mode {
	case ExecInterp:
		return nil, nil
	case ExecVM:
		return Factory, nil
	}
	return nil, fmt.Errorf("unknown exec mode %q (want %s or %s)", mode, ExecVM, ExecInterp)
}

// modeMu orders installs of the process default engine with the mode
// they record, so ExecMode always names the installed factory.
var (
	modeMu   sync.Mutex
	execMode = ExecInterp
)

func install(mode string, mk interp.EngineFactory) {
	modeMu.Lock()
	interp.SetDefaultEngine(mk)
	execMode = mode
	modeMu.Unlock()
}

// Install makes the VM the default engine for every subsequently compiled
// program; Uninstall restores the tree-walker.
func Install()   { install(ExecVM, Factory) }
func Uninstall() { install(ExecInterp, nil) }

// ExecMode reports the process default engine as an exec mode, as last
// set by Install, Uninstall or SetExecMode; "interp" before any of them
// runs.
func ExecMode() string {
	modeMu.Lock()
	defer modeMu.Unlock()
	return execMode
}

// Attach compiles p for the VM and installs the engine on it, overriding
// whatever engine (or tree-walker default) it carries.
func Attach(p *interp.Program) error {
	e, err := NewEngine(p)
	if err != nil {
		return err
	}
	p.SetEngine(e)
	return nil
}

// Module returns the compiled bytecode (for disassembly and tests).
func (e *Engine) Module() *Module { return e.mod }

// Run implements interp.Engine: execute main() against the backend,
// converting VM faults to *interp.RuntimeError exactly like the
// tree-walker's Run.
func (e *Engine) Run(p *interp.Program, b interp.Backend) (err error) {
	if p.Layout() != e.mod.Layout {
		return fmt.Errorf("vm: engine compiled for a different program layout")
	}
	m := takeMachine()
	m.p, m.backend, m.mod, m.eng = p, b, e.mod, e
	defer func() {
		if m.vecRuns != 0 {
			e.vecRuns.Add(m.vecRuns)
		}
		r := recover()
		m.release()
		if r != nil {
			if re, ok := r.(*interp.RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	m.globals = resized(m.globals, len(e.mod.Globals))
	for i, g := range e.mod.Globals {
		m.globals[i] = p.GlobalAt(int(g.Slot))
	}
	m.work = &m.hostWork
	m.refreshBucket()
	if n := p.LoopBudget(); n > 0 {
		m.budgetOn = true
		m.budget = n
	}
	m.callFunc(e.mod.Funcs[e.mod.Main], nil, nil)
	// Flush trailing host work.
	if !m.hostWork.Zero() {
		b.HostCompute(m.hostWork)
		m.hostWork = interp.Work{}
	}
	return nil
}

// ExecModes lists the -exec flag values the cmds accept.
const (
	ExecInterp = "interp"
	ExecVM     = "vm"
)

// SetExecMode configures the process-wide default engine from a -exec
// flag value, returning an error on unknown modes.
func SetExecMode(mode string) error {
	mk, err := factoryFor(mode)
	if err != nil {
		return err
	}
	install(mode, mk)
	return nil
}

// Apply pins one program's engine from an exec-mode string: "vm" compiles
// it to bytecode, "interp" forces the tree-walker, "" leaves whatever the
// process default (SetExecMode / Install) already attached.
func Apply(p *interp.Program, mode string) error {
	if mode == "" {
		return nil
	}
	mk, err := factoryFor(mode)
	if err != nil {
		return err
	}
	if mk == nil {
		p.SetEngine(nil)
		return nil
	}
	e, err := mk(p)
	if err != nil {
		return err
	}
	p.SetEngine(e)
	return nil
}
