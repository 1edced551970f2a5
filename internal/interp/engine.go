package interp

import (
	"io"
	"sort"
	"sync"

	"comp/internal/minic"
)

// Engine is an alternative execution engine for a compiled Program. The
// canonical implementation is the bytecode VM in internal/vm; the
// tree-walker in this package is the reference semantics and stays around
// as the differential oracle for every engine.
//
// An Engine must be a drop-in for the tree-walker: bit-identical outputs
// (arrays, scalars, printf), the same Work reported to the Backend at the
// same flush points, and the same *RuntimeError (message and position) on
// every fault.
type Engine interface {
	Run(p *Program, b Backend) error
}

// EngineFactory builds an Engine for a freshly compiled Program. It runs
// at CompileFile time so engine compilation errors surface early; on error
// the Program records the error and falls back to the tree-walker.
type EngineFactory func(p *Program) (Engine, error)

var (
	engineMu      sync.RWMutex
	engineFactory EngineFactory
)

// SetDefaultEngine installs a factory applied to every subsequently
// compiled Program. Passing nil restores the tree-walker default. Intended
// for process startup (the cmd/* -exec flag); concurrent use with
// in-flight compiles is safe but which engine a racing compile sees is
// unspecified.
func SetDefaultEngine(f EngineFactory) {
	engineMu.Lock()
	engineFactory = f
	engineMu.Unlock()
}

func defaultEngineFactory() EngineFactory {
	engineMu.RLock()
	defer engineMu.RUnlock()
	return engineFactory
}

// SetEngine overrides this program's execution engine (nil = tree-walker).
func (p *Program) SetEngine(e Engine) { p.engine = e }

// Engine returns the installed engine, or nil when the tree-walker runs.
func (p *Program) Engine() Engine { return p.engine }

// EngineErr reports why the default engine factory declined this program
// (nil when the engine attached, or when no factory was installed).
func (p *Program) EngineErr() error { return p.engineErr }

// ---- Engine-facing state access ----
//
// The accessors below expose the Program's mutable execution state to
// engines. They exist for internal/vm; nothing else should need them.

// GlobalHandle is an engine's stable handle to one global variable. The
// handle stays valid across Reset: Reset replaces the storage a handle
// points at, not the handle itself.
type GlobalHandle struct{ g *gvar }

// Valid reports whether the handle resolved.
func (h GlobalHandle) Valid() bool { return h.g != nil }

// Name returns the global's declared name.
func (h GlobalHandle) Name() string { return h.g.name }

// IsArray reports whether the global is an array or pointer.
func (h GlobalHandle) IsArray() bool { return h.g.arrayly }

// Shared reports the _Cilk_shared attribute.
func (h GlobalHandle) Shared() bool { return h.g.shared }

// Type returns the declared type.
func (h GlobalHandle) Type() minic.Type { return h.g.typ }

// Elem returns the element type (nil for scalars).
func (h GlobalHandle) Elem() minic.Type { return h.g.elem }

// Cell returns the host-side scalar storage (meaningful for scalars).
func (h GlobalHandle) Cell() *Cell { return &h.g.cell }

// Arr returns the current host-side array storage, allocating a
// fixed-size array's zeroed storage on first use after Reset (nil for an
// unallocated pointer).
func (h GlobalHandle) Arr() *Array { return h.g.storage() }

// SetArr rebinds the host-side array storage (global pointer assignment).
func (h GlobalHandle) SetArr(a *Array) { h.g.setStorage(a) }

// Slot returns the global's index in its program's Layout; GlobalAt
// resolves it in any instance of that layout.
func (h GlobalHandle) Slot() int { return h.g.slot }

// Global resolves a global by name; the second result reports success.
func (p *Program) Global(name string) (GlobalHandle, bool) {
	g := p.lookup(name)
	return GlobalHandle{g: g}, g != nil
}

// GlobalAt resolves a global by its Layout slot.
func (p *Program) GlobalAt(slot int) GlobalHandle { return GlobalHandle{g: &p.globals[slot]} }

// GlobalNames returns every global's name in sorted order.
func (p *Program) GlobalNames() []string {
	names := make([]string, 0, len(p.globals))
	for _, g := range p.layout.globals {
		names = append(names, g.name)
	}
	sort.Strings(names)
	return names
}

// DevBuf returns the device copy of a buffer, or nil.
func (p *Program) DevBuf(name string) *Array { return p.devArr[name] }

// AllocDevBuf installs a zeroed device buffer of n elements for the
// global array or pointer h (offload allocation). A buffer
// the same global freed earlier in this run is cleared and reused when its
// length matches, so a region that allocates and frees the same buffers on
// every offload (LEO's default alloc_if(1) free_if(1)) allocates them once
// per run. The simulator still charges every allocation and free; only
// host memory is recycled.
func (p *Program) AllocDevBuf(h GlobalHandle, n int64) {
	g := h.g
	a := g.freed
	g.freed = nil
	if a != nil && int64(a.Len()) == n {
		clear(a.Data)
	} else {
		a = NewArrayFor(g.name, g.elem, n)
	}
	p.devArr[g.name] = a
}

// FreeDevBuf frees a device buffer (free_if semantics), keeping it on its
// global for AllocDevBuf to recycle unless a pointer local may still
// reference it.
func (p *Program) FreeDevBuf(name string) {
	a := p.devArr[name]
	if a == nil {
		return
	}
	delete(p.devArr, name)
	if g := p.lookup(name); g != nil && !g.aliased {
		g.freed = a
	}
}

// DevScalar returns the device copy of a scalar, or nil if it was never
// transferred or written on the device.
func (p *Program) DevScalar(name string) *Cell { return p.devCell[name] }

// EnsureDevScalar returns the device copy of a scalar, creating it zeroed
// on first use (device-side store semantics).
func (p *Program) EnsureDevScalar(name string) *Cell {
	c := p.devCell[name]
	if c == nil {
		c = &Cell{}
		p.devCell[name] = c
	}
	return c
}

// OutWriter returns the printf sink.
func (p *Program) OutWriter() io.Writer { return &p.out }

// NoteSharedAlloc counts one offload_shared_malloc call.
func (p *Program) NoteSharedAlloc() { p.sharedAllocs++ }

// LoopBudget returns the configured per-run loop-iteration budget
// (0 = unlimited).
func (p *Program) LoopBudget() int64 { return p.loopBudget }

// SetLoopBudget caps the total loop iterations a single Run may execute
// across all loops (0 = unlimited). Both the tree-walker and any engine
// enforce the cap at the same program points with the same error, so
// differential harnesses can bound adversarial inputs without risking
// divergence. Intended for fuzzing; normal execution leaves it off.
func (p *Program) SetLoopBudget(n int64) { p.loopBudget = n }
