package vm

import (
	"fmt"
	"math"

	"comp/internal/interp"
	"comp/internal/minic"
)

// devTouch tracks the min/max element index touched in one device buffer.
// Inside a region the machine keeps one per global (touchSlots, indexed
// by Access.GIdx and VecSite.A), so the hot path is a pointer compare and
// a min/max update. Every buffer global gi reaches on the device is named
// after it (AllocDevBuf names each buffer for its global, and global
// names are unique), so a slot is exactly the tree-walker's name-keyed
// range: when a transfer reallocates the buffer mid-region, the slot is
// rebound to the new one and keeps widening.
type devTouch struct {
	arr    *interp.Array
	lo, hi int64
}

// devCell caches one global's device-scalar resolution for the duration of
// an offload region. known distinguishes "not yet resolved" from "resolved
// to absent" (absent scalars read the host cell until a kernel store
// creates them, which updates this cache).
type devCell struct {
	cell  *interp.Cell
	known bool
}

// regionKind distinguishes the two bracketed region types.
type regionKind int

const (
	rPar regionKind = iota
	rOff
)

// region is one open omp/offload region. Records are heap-allocated so the
// machine's work pointer can alias kernelWork while the stack grows.
type region struct {
	kind regionKind

	// rPar
	inline bool // nested inside an enclosing parallel region
	iters  int64

	// rOff
	desc       *OffloadDesc
	resolved   []interp.TransferSpec
	kernelWork interp.Work
	savedWork  *interp.Work
}

// machine executes compiled chunks against a Program's storage, mirroring
// the tree-walker's Env field for field.
type machine struct {
	p       *interp.Program
	backend interp.Backend
	mod     *Module
	// globals resolves mod.Globals against p's storage for this run.
	globals []interp.GlobalHandle

	hostWork interp.Work
	work     *interp.Work   // current accounting target (host or kernel)
	bucket   *interp.Bucket // cached bucket within work

	parallel, vec bool
	onDevice      bool
	tracking      bool // inside an offload region: record touched ranges
	// touchSlots holds each global's touched range in the open region.
	touchSlots []devTouch
	// Per-global caches, indexed like mod.Globals and valid only while
	// onDevice. Device-buffer bindings cannot change inside a region
	// (OpDevChk forbids rebinds; transfers clear the caches), so one
	// string-map lookup per global per region replaces one per access.
	devArrs  []*interp.Array
	devCells []devCell

	regions []*region
	retVal  float64

	depth    int
	budget   int64
	budgetOn bool

	// frames pools call frames and eval stacks by nesting level. Calls and
	// spec-block evaluations are strictly LIFO, so level i can always reuse
	// the backing arrays of the previous visitor at level i. frameIdx is
	// bumped by both callFunc and evalBlock; depth only by callFunc, so the
	// call-depth fault stays in lockstep with the tree-walker.
	frames   []frame
	frameIdx int

	// pfVals is printf's argument scratch; printf arguments are fully
	// evaluated before the call, so it never nests.
	pfVals []interface{}

	// Columnar tier state: eng is the running Engine (its scalar flag
	// turns OpVecLoop into a no-op); col is the column scratch, kept with
	// the pooled machine; vecRuns counts the batches the tier ran.
	eng     *Engine
	col     colScratch
	vecRuns int64
}

// machFree is the process-wide free list of machines. Unlike a sync.Pool
// it survives garbage collection, which on a serving process runs between
// most requests. Its capacity bounds what it keeps, and RSS with it: 4
// machines cover one running program per core on a small host. A pooled
// machine keeps its frame stacks, global handles, device caches, touch
// slots and column scratch, so a warm request reuses them instead of
// allocating them. release drops every array, program and code reference
// first, so a pooled machine pins no request's data.
var machFree = make(chan *machine, 4)

// maxPooledFrames bounds the frame stack a pooled machine keeps: a run
// that recursed deeper returns its machine to the garbage collector.
const maxPooledFrames = 64

// takeMachine returns a free machine, or a new one.
func takeMachine() *machine {
	select {
	case m := <-machFree:
		return m
	default:
		return new(machine)
	}
}

// release clears the run's state and returns m to machFree. Frames and
// tables are resliced per run, so their references are cleared up to
// capacity.
func (m *machine) release() {
	if len(m.frames) > maxPooledFrames {
		return
	}
	for i := range m.frames {
		fr := &m.frames[i]
		clear(fr.r[:cap(fr.r)])
		clear(fr.rs[:cap(fr.rs)])
	}
	clear(m.globals[:cap(m.globals)])
	clear(m.devArrs[:cap(m.devArrs)])
	clear(m.devCells[:cap(m.devCells)])
	clear(m.touchSlots[:cap(m.touchSlots)])
	clear(m.regions[:cap(m.regions)])
	clear(m.pfVals)
	clear(m.col.regs)
	clear(m.col.arrs)
	*m = machine{
		globals:    m.globals[:0],
		touchSlots: m.touchSlots[:0],
		devArrs:    m.devArrs[:0],
		devCells:   m.devCells[:0],
		regions:    m.regions[:0],
		frames:     m.frames,
		pfVals:     m.pfVals,
		col:        m.col,
	}
	select {
	case machFree <- m:
	default:
	}
}

// frame holds one nesting level's locals and eval stacks.
type frame struct {
	f  []float64
	r  []*interp.Array
	st []float64
	rs []*interp.Array
}

// frame returns the pooled frame for the current nesting level, sized for
// the given slot and stack depths. Locals come back zeroed (MiniC locals
// read as 0 before first assignment); eval stacks are left dirty because
// the verifier guarantees every stack read is preceded by a push.
func (m *machine) frame(nf, nr, nst, nrs int) *frame {
	for m.frameIdx >= len(m.frames) {
		m.frames = append(m.frames, frame{})
	}
	fr := &m.frames[m.frameIdx]
	fr.f = resized(fr.f, nf)
	clear(fr.f)
	fr.r = resized(fr.r, nr)
	clear(fr.r)
	fr.st = resized(fr.st, nst)
	fr.rs = resized(fr.rs, nrs)
	return fr
}

func (m *machine) throwf(pos minic.Pos, format string, args ...interface{}) {
	panic(&interp.RuntimeError{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// refreshBucket re-routes work accounting after a mode or region change.
func (m *machine) refreshBucket() {
	switch {
	case !m.parallel:
		m.bucket = &m.work.Serial
	case m.vec:
		m.bucket = &m.work.Vec
	default:
		m.bucket = &m.work.Scalar
	}
}

func (m *machine) spendIteration(pos minic.Pos) {
	if !m.budgetOn {
		return
	}
	m.budget--
	if m.budget < 0 {
		m.throwf(pos, "loop budget exhausted")
	}
}

// widen adds idx to t's range when t holds a, and reports whether it
// did. It is the inlined hit path of a device touch; the dispatch loop
// calls touchMiss when it fails.
func (t *devTouch) widen(a *interp.Array, idx int64) bool {
	if t.arr != a {
		return false
	}
	t.lo = min(t.lo, idx)
	t.hi = max(t.hi, idx)
	return true
}

// touch records an access to element idx of a, which global gi resolved
// to, in the open offload region.
func (m *machine) touch(gi int32, a *interp.Array, idx int64) {
	if !m.touchSlots[gi].widen(a, idx) {
		m.touchMiss(gi, a, idx)
	}
}

// touchMiss claims global gi's empty slot for a, or rebinds the slot to
// a when a transfer has replaced the buffer it held: both are named after
// global gi, so their ranges are one. It runs once per global per
// region, so it is kept out of line, out of the dispatch loop.
//
//go:noinline
func (m *machine) touchMiss(gi int32, a *interp.Array, idx int64) {
	s := &m.touchSlots[gi]
	if s.arr == nil {
		*s = devTouch{arr: a, lo: idx, hi: idx}
		return
	}
	s.arr = a
	s.lo = min(s.lo, idx)
	s.hi = max(s.hi, idx)
}

// elemSlot is the slow path of an element access: member offsets, and
// the bounds fault. The ops inline the common case, a plain array
// (Fields == 1) indexed in range, checking len(a.Data) so they skip Len's
// divide.
func (m *machine) elemSlot(ch *Chunk, acc *Access, a *interp.Array, i int64) int {
	if i < 0 || i >= int64(a.Len()) {
		m.throwf(ch.Positions[acc.Pos], "index %d out of range for %s (len %d)", i, a.Name, a.Len())
	}
	off := 0
	if acc.FieldOff >= 0 {
		off = int(acc.FieldOff)
	}
	return int(i)*a.Fields + off
}

// resetDevCaches sizes and clears the per-global device caches and touch
// slots at region entry; clearDevCaches invalidates the caches (not the
// slots) after a mid-region transfer.
func (m *machine) resetDevCaches() {
	n := len(m.mod.Globals)
	m.devArrs = resized(m.devArrs, n)
	m.devCells = resized(m.devCells, n)
	m.touchSlots = resized(m.touchSlots, n)
	clear(m.touchSlots)
	m.clearDevCaches()
}

func (m *machine) clearDevCaches() {
	clear(m.devArrs)
	clear(m.devCells)
}

// resized returns s with length n, reusing its backing array when it is
// large enough. Entries up to n keep their old contents.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// charge adds one work triple to the current bucket.
func (m *machine) charge(w *WorkTriple) {
	b := m.bucket
	b.Flops += w.W
	b.Bytes += w.B
	b.IrrBytes += w.Irr
}

// chargeBranch adds a branch's carried block charge (Instr.W), if any.
func (m *machine) chargeBranch(ch *Chunk, w uint16) {
	if w != 0 {
		m.charge(&ch.Works[w-1])
	}
}

// cmpHolds evaluates one OpCmpJmp comparison kind.
func cmpHolds(kind int32, a, b float64) bool {
	switch kind {
	case cmpEq:
		return a == b
	case cmpNe:
		return a != b
	case cmpLt:
		return a < b
	case cmpLe:
		return a <= b
	case cmpGt:
		return a > b
	default:
		return a >= b
	}
}

// garr resolves a global array reference with the same device-aware
// semantics and fault messages as OpRefG. The on-device cache hit inlines;
// garrSlow resolves everything else.
func (m *machine) garr(ch *Chunk, gi, posIdx int32) *interp.Array {
	if m.onDevice {
		if a := m.devArrs[gi]; a != nil {
			return a
		}
	}
	return m.garrSlow(ch, gi, posIdx)
}

func (m *machine) garrSlow(ch *Chunk, gi, posIdx int32) *interp.Array {
	if m.onDevice {
		g := m.mod.Globals[gi]
		a := m.p.DevBuf(g.Name)
		if a == nil {
			m.throwf(ch.Positions[posIdx], "array %s is not present on the device (missing in/nocopy clause?)", g.Name)
		}
		m.devArrs[gi] = a
		return a
	}
	a := m.globals[gi].Arr()
	if a == nil {
		m.throwf(ch.Positions[posIdx], "array %s has no storage (not allocated)", m.mod.Globals[gi].Name)
	}
	return a
}

// gval reads a scalar global with OpLoadG's device-aware resolution.
func (m *machine) gval(gi int32) float64 {
	if m.onDevice {
		dc := &m.devCells[gi]
		if !dc.known {
			dc.cell = m.p.DevScalar(m.mod.Globals[gi].Name)
			dc.known = true
		}
		if dc.cell != nil {
			return dc.cell.V
		}
	}
	return m.globals[gi].Cell().V
}

// gstore writes a scalar global with OpStoreG's device-aware resolution
// (kernel stores create the device cell on demand).
func (m *machine) gstore(gi int32, v float64) {
	if m.onDevice {
		dc := &m.devCells[gi]
		if dc.cell == nil {
			dc.cell = m.p.EnsureDevScalar(m.mod.Globals[gi].Name)
			dc.known = true
		}
		dc.cell.V = v
		return
	}
	m.globals[gi].Cell().V = v
}

func (m *machine) flush() {
	if !m.work.Zero() {
		m.backend.HostCompute(*m.work)
		*m.work = interp.Work{}
	}
}

// callFunc invokes a chunk with arguments popped off the caller's stacks.
func (m *machine) callFunc(ch *Chunk, args []float64, refs []*interp.Array) float64 {
	if m.depth >= maxCallDepth {
		m.throwf(minic.Pos{}, "call depth exceeded (%d frames)", maxCallDepth)
	}
	m.depth++
	m.frameIdx++
	fr := m.frame(ch.NumSlots, ch.RefSlots, ch.MaxF, ch.MaxR)
	f, r := fr.f, fr.r
	ai, ri := 0, 0
	for _, ps := range ch.Params {
		if ps.IsRef {
			r[ps.Slot] = refs[ri]
			ri++
		} else {
			f[ps.Slot] = args[ai]
			ai++
		}
	}
	savedRet := m.retVal
	m.exec(ch, ch.Code, f, r, fr.st, fr.rs, len(m.regions))
	ret := m.retVal
	m.retVal = savedRet
	m.frameIdx--
	m.depth--
	return ret
}

// evalBlock runs one spec mini-block against an existing frame and returns
// the resulting value. A block of n instructions can never need more than
// n stack slots.
func (m *machine) evalBlock(ch *Chunk, blk []Instr, f []float64, r []*interp.Array) float64 {
	m.frameIdx++
	fr := m.frame(0, 0, len(blk), len(blk))
	v := m.exec(ch, blk, f, r, fr.st, fr.rs, len(m.regions))
	m.frameIdx--
	return v
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// exec is the dispatch loop. It returns the top of stack when execution
// falls off the end of code (mini-blocks), or 0 on OpRet (function bodies).
func (m *machine) exec(ch *Chunk, code []Instr, f []float64, r []*interp.Array, st []float64, rs []*interp.Array, regBase int) float64 {
	sp, rsp := 0, 0
	for ip := 0; ip < len(code); ip++ {
		in := code[ip]
		switch in.Op {
		case OpNop:

		case OpConst:
			st[sp] = ch.Consts[in.A]
			sp++
		case OpLoad:
			st[sp] = f[in.A]
			sp++
		case OpStore:
			sp--
			f[in.A] = st[sp]
		case OpStoreT:
			sp--
			f[in.A] = math.Trunc(st[sp])
		case OpZero:
			f[in.A] = 0
		case OpInc:
			f[in.A] += float64(in.B)

		case OpLoadG:
			st[sp] = m.gval(in.A)
			sp++
		case OpStoreG:
			sp--
			m.gstore(in.A, st[sp])

		case OpAdd:
			sp--
			st[sp-1] += st[sp]
		case OpSub:
			sp--
			st[sp-1] -= st[sp]
		case OpMul:
			sp--
			st[sp-1] *= st[sp]
		case OpDivF:
			sp--
			st[sp-1] /= st[sp]
		case OpDivI:
			sp--
			b := st[sp]
			if b == 0 {
				if in.A >= 0 {
					m.throwf(ch.Positions[in.A], "integer division by zero")
				}
				m.throwf(minic.Pos{}, "integer division by zero")
			}
			st[sp-1] = math.Trunc(st[sp-1] / b)
		case OpMod:
			sp--
			d := int64(st[sp])
			if d == 0 {
				if in.A >= 0 {
					m.throwf(ch.Positions[in.A], "integer modulus by zero")
				}
				m.throwf(minic.Pos{}, "integer modulus by zero")
			}
			st[sp-1] = float64(int64(st[sp-1]) % d)
		case OpShl:
			sp--
			st[sp-1] = float64(int64(st[sp-1]) << uint(int64(st[sp])))
		case OpShr:
			sp--
			st[sp-1] = float64(int64(st[sp-1]) >> uint(int64(st[sp])))
		case OpEq:
			sp--
			st[sp-1] = boolToF(st[sp-1] == st[sp])
		case OpNe:
			sp--
			st[sp-1] = boolToF(st[sp-1] != st[sp])
		case OpLt:
			sp--
			st[sp-1] = boolToF(st[sp-1] < st[sp])
		case OpLe:
			sp--
			st[sp-1] = boolToF(st[sp-1] <= st[sp])
		case OpGt:
			sp--
			st[sp-1] = boolToF(st[sp-1] > st[sp])
		case OpGe:
			sp--
			st[sp-1] = boolToF(st[sp-1] >= st[sp])
		case OpAndE:
			sp--
			st[sp-1] = boolToF(st[sp-1] != 0 && st[sp] != 0)
		case OpOrE:
			sp--
			st[sp-1] = boolToF(st[sp-1] != 0 || st[sp] != 0)

		case OpNeg:
			st[sp-1] = -st[sp-1]
		case OpNot:
			st[sp-1] = boolToF(st[sp-1] == 0)
		case OpBool:
			st[sp-1] = boolToF(st[sp-1] != 0)
		case OpTrunc:
			st[sp-1] = math.Trunc(st[sp-1])

		case OpJmp:
			m.chargeBranch(ch, in.W)
			ip = int(in.A) - 1
		case OpJz:
			m.chargeBranch(ch, in.W)
			sp--
			if st[sp] == 0 {
				ip = int(in.A) - 1
			}
		case OpJnz:
			m.chargeBranch(ch, in.W)
			sp--
			if st[sp] != 0 {
				ip = int(in.A) - 1
			}
		case OpPop:
			sp--
		case OpSwap:
			st[sp-1], st[sp-2] = st[sp-2], st[sp-1]
		case OpChkZ:
			if in.B == 1 {
				if int64(st[sp-1]) == 0 {
					m.throwf(ch.Positions[in.A], "integer modulus by zero")
				}
			} else if st[sp-1] == 0 {
				m.throwf(ch.Positions[in.A], "integer division by zero")
			}

		case OpWork:
			m.charge(&ch.Works[in.A])

		case OpGuardW:
			if f[in.A] > maxLoopIters {
				m.throwf(ch.Positions[in.B], "while loop exceeded %d iterations", int64(maxLoopIters))
			}
			m.spendIteration(ch.Positions[in.B])
			f[in.A]++
		case OpGuardF:
			if f[in.A] > maxLoopIters {
				m.throwf(ch.Positions[in.B], "for loop exceeded %d iterations", int64(maxLoopIters))
			}
			m.spendIteration(ch.Positions[in.B])
			f[in.A]++
		case OpGuardPar:
			reg := m.regions[len(m.regions)-1]
			if reg.inline {
				if f[in.A] > maxLoopIters {
					m.throwf(ch.Positions[in.B], "for loop exceeded %d iterations", int64(maxLoopIters))
				}
				f[in.A]++
			}
			m.spendIteration(ch.Positions[in.B])
		case OpIterTick:
			reg := m.regions[len(m.regions)-1]
			if !reg.inline {
				reg.iters++
			}
		case OpVecLoop:
			m.runVecLoop(ch, ch.VecLoops[in.A], f, r)

		case OpParEnter:
			reg := &region{kind: rPar, inline: m.parallel}
			m.regions = append(m.regions, reg)
			if !reg.inline {
				m.parallel = true
				m.vec = ch.Pars[in.A].Vec
				m.refreshBucket()
			}
		case OpParExit:
			m.parExit()

		case OpOffEnter:
			m.offEnter(ch, ch.Offloads[in.A], f, r)
		case OpOffExit:
			m.offExit(f, r)

		case OpTransfer:
			m.transfer(ch.Transfers[in.A], f, r)
		case OpWait:
			m.flush()
			m.backend.OffloadWait(ch.Waits[in.A])

		case OpRefL:
			a := r[in.A]
			if a == nil {
				d := ch.RefLs[in.B]
				m.throwf(ch.Positions[d.Pos], "nil pointer %s", d.Name)
			}
			rs[rsp] = a
			rsp++
		case OpRefG:
			rs[rsp] = m.garr(ch, in.A, in.B)
			rsp++
		case OpRefNull:
			rs[rsp] = nil
			rsp++
		case OpRefStoreL:
			rsp--
			r[in.A] = rs[rsp]
		case OpRefStoreG:
			rsp--
			m.globals[in.A].SetArr(rs[rsp])
		case OpDevChk:
			if m.onDevice {
				g := m.mod.Globals[in.A]
				m.throwf(ch.Positions[in.B], "cannot rebind global pointer %s on the device", g.Name)
			}
		case OpMalloc:
			d := ch.Mallocs[in.A]
			sp--
			bytes := int64(st[sp])
			if bytes < 0 {
				m.throwf(ch.Positions[d.Pos], "negative allocation size %d", bytes)
			}
			if d.Shared {
				m.p.NoteSharedAlloc()
			}
			rs[rsp] = interp.NewArrayFor("malloc", d.Elem, bytes/d.Elem.Size())
			rsp++
		case OpNewArr:
			d := ch.NewArrs[in.A]
			sp--
			n := int64(st[sp])
			if n < 0 {
				m.throwf(ch.Positions[d.Pos], "negative length %d for local array %s", n, d.Name)
			}
			r[d.Slot] = interp.NewArrayFor(d.Name, d.Elem, n)

		case OpLoadIdx:
			acc := &ch.Accesses[in.A]
			sp--
			i := int64(st[sp])
			rsp--
			a := rs[rsp]
			k := int(i)
			if a.Fields != 1 || uint64(i) >= uint64(len(a.Data)) {
				k = m.elemSlot(ch, acc, a, i)
			}
			if acc.IsGlobal && m.tracking && !m.touchSlots[acc.GIdx].widen(a, i) {
				m.touchMiss(acc.GIdx, a, i)
			}
			st[sp] = a.Data[k]
			sp++
		case OpStoreIdx:
			acc := &ch.Accesses[in.A]
			sp--
			i := int64(st[sp])
			rsp--
			a := rs[rsp]
			sp--
			k := int(i)
			if a.Fields != 1 || uint64(i) >= uint64(len(a.Data)) {
				k = m.elemSlot(ch, acc, a, i)
			}
			if acc.IsGlobal && m.tracking && !m.touchSlots[acc.GIdx].widen(a, i) {
				m.touchMiss(acc.GIdx, a, i)
			}
			a.Data[k] = st[sp]

		case OpCall:
			callee := m.mod.Funcs[in.A]
			nNum := int(in.B >> 12)
			nRef := int(in.B & 0xfff)
			sp -= nNum
			rsp -= nRef
			v := m.callFunc(callee, st[sp:sp+nNum], rs[rsp:rsp+nRef])
			st[sp] = v
			sp++
		case OpBuiltin:
			switch in.A {
			case bSqrt:
				st[sp-1] = math.Sqrt(st[sp-1])
			case bExp:
				st[sp-1] = math.Exp(st[sp-1])
			case bLog:
				st[sp-1] = math.Log(st[sp-1])
			case bPow:
				sp--
				st[sp-1] = math.Pow(st[sp-1], st[sp])
			case bFabs:
				st[sp-1] = math.Abs(st[sp-1])
			case bFloor:
				st[sp-1] = math.Floor(st[sp-1])
			case bCeil:
				st[sp-1] = math.Ceil(st[sp-1])
			case bFmin:
				sp--
				st[sp-1] = math.Min(st[sp-1], st[sp])
			case bFmax:
				sp--
				st[sp-1] = math.Max(st[sp-1], st[sp])
			}
		case OpPrintf:
			d := ch.Printfs[in.A]
			n := len(d.Kinds)
			sp -= n
			if cap(m.pfVals) < n {
				m.pfVals = make([]interface{}, n)
			}
			vals := m.pfVals[:n]
			for i := 0; i < n; i++ {
				if d.Kinds[i] == 'i' {
					vals[i] = int64(st[sp+i])
				} else {
					vals[i] = st[sp+i]
				}
			}
			fmt.Fprintf(m.p.OutWriter(), d.Format, vals...)
			st[sp] = 0
			sp++

		case OpCmpJmp:
			m.chargeBranch(ch, in.W)
			sp -= 2
			if cmpHolds(in.B>>1, st[sp], st[sp+1]) == (in.B&1 != 0) {
				ip = int(in.A) - 1
			}
		case OpCmpJmpC:
			m.chargeBranch(ch, in.W)
			sp--
			if cmpHolds((in.B>>1)&7, st[sp], ch.Consts[in.B>>4]) == (in.B&1 != 0) {
				ip = int(in.A) - 1
			}
		case OpCmpJmpG:
			m.chargeBranch(ch, in.W)
			sp--
			if cmpHolds((in.B>>1)&7, st[sp], m.gval(in.B>>4)) == (in.B&1 != 0) {
				ip = int(in.A) - 1
			}
		case OpLoad2:
			st[sp] = f[in.A]
			st[sp+1] = f[in.B]
			sp += 2
		case OpLoadIdxL:
			acc := &ch.Accesses[in.A]
			i := int64(f[in.B])
			rsp--
			a := rs[rsp]
			k := int(i)
			if a.Fields != 1 || uint64(i) >= uint64(len(a.Data)) {
				k = m.elemSlot(ch, acc, a, i)
			}
			if acc.IsGlobal && m.tracking && !m.touchSlots[acc.GIdx].widen(a, i) {
				m.touchMiss(acc.GIdx, a, i)
			}
			st[sp] = a.Data[k]
			sp++
		case OpAddL:
			st[sp-1] += f[in.A]
		case OpSubL:
			st[sp-1] -= f[in.A]
		case OpMulL:
			st[sp-1] *= f[in.A]
		case OpDivL:
			st[sp-1] /= f[in.A]
		case OpAddC:
			st[sp-1] += ch.Consts[in.A]
		case OpSubC:
			st[sp-1] -= ch.Consts[in.A]
		case OpMulC:
			st[sp-1] *= ch.Consts[in.A]
		case OpDivC:
			st[sp-1] /= ch.Consts[in.A]
		case OpAddG:
			st[sp-1] += m.gval(in.A)
		case OpSubG:
			st[sp-1] -= m.gval(in.A)
		case OpMulG:
			st[sp-1] *= m.gval(in.A)
		case OpDivG:
			st[sp-1] /= m.gval(in.A)
		case OpMove:
			f[in.B] = f[in.A]
		case OpMoveT:
			f[in.B] = math.Trunc(f[in.A])
		case OpAddLC:
			st[sp] = f[in.A] + ch.Consts[in.B]
			sp++
		case OpSubLC:
			st[sp] = f[in.A] - ch.Consts[in.B]
			sp++
		case OpMulLC:
			st[sp] = f[in.A] * ch.Consts[in.B]
			sp++
		case OpDivLC:
			st[sp] = f[in.A] / ch.Consts[in.B]
			sp++
		case OpStoreIdxL:
			acc := &ch.Accesses[in.A]
			i := int64(f[in.B])
			rsp--
			a := rs[rsp]
			sp--
			k := int(i)
			if a.Fields != 1 || uint64(i) >= uint64(len(a.Data)) {
				k = m.elemSlot(ch, acc, a, i)
			}
			if acc.IsGlobal && m.tracking && !m.touchSlots[acc.GIdx].widen(a, i) {
				m.touchMiss(acc.GIdx, a, i)
			}
			a.Data[k] = st[sp]
		case OpLoadIdxG:
			acc := &ch.Accesses[in.A]
			a := m.garr(ch, acc.GIdx, acc.RefPos)
			i := int64(f[in.B])
			k := int(i)
			if a.Fields != 1 || uint64(i) >= uint64(len(a.Data)) {
				k = m.elemSlot(ch, acc, a, i)
			}
			if m.tracking && !m.touchSlots[acc.GIdx].widen(a, i) {
				m.touchMiss(acc.GIdx, a, i)
			}
			st[sp] = a.Data[k]
			sp++
		case OpStoreIdxG:
			acc := &ch.Accesses[in.A]
			a := m.garr(ch, acc.GIdx, acc.RefPos)
			i := int64(f[in.B])
			sp--
			k := int(i)
			if a.Fields != 1 || uint64(i) >= uint64(len(a.Data)) {
				k = m.elemSlot(ch, acc, a, i)
			}
			if m.tracking && !m.touchSlots[acc.GIdx].widen(a, i) {
				m.touchMiss(acc.GIdx, a, i)
			}
			a.Data[k] = st[sp]

		case OpIncJmp:
			m.chargeBranch(ch, in.W)
			f[in.B>>16] += float64(in.B&0xffff - incBias)
			ip = int(in.A) - 1
		case OpBuiltin2L:
			x, y := f[in.B>>16], f[in.B&0xffff]
			switch in.A {
			case bPow:
				x = math.Pow(x, y)
			case bFmin:
				x = math.Min(x, y)
			default:
				x = math.Max(x, y)
			}
			st[sp] = x
			sp++
		case OpConstSt:
			f[in.B] = ch.Consts[in.A]
		case OpConst2:
			st[sp] = ch.Consts[in.A]
			st[sp+1] = ch.Consts[in.B]
			sp += 2
		case OpLoadC:
			st[sp] = f[in.A]
			st[sp+1] = ch.Consts[in.B]
			sp += 2
		case OpNegL:
			st[sp] = -f[in.A]
			sp++
		case OpBuiltinL:
			v := f[in.B]
			switch in.A {
			case bSqrt:
				v = math.Sqrt(v)
			case bExp:
				v = math.Exp(v)
			case bLog:
				v = math.Log(v)
			case bFabs:
				v = math.Abs(v)
			case bFloor:
				v = math.Floor(v)
			case bCeil:
				v = math.Ceil(v)
			}
			st[sp] = v
			sp++
		case OpAddLL:
			st[sp] = f[in.A] + f[in.B]
			sp++
		case OpSubLL:
			st[sp] = f[in.A] - f[in.B]
			sp++
		case OpMulLL:
			st[sp] = f[in.A] * f[in.B]
			sp++
		case OpDivLL:
			st[sp] = f[in.A] / f[in.B]
			sp++

		case OpSetRet:
			sp--
			m.retVal = st[sp]
		case OpRetV:
			sp--
			m.retVal = st[sp]
			m.unwind(regBase, f, r)
			return 0
		case OpRetL:
			m.retVal = f[in.A]
			m.unwind(regBase, f, r)
			return 0
		case OpRet:
			m.unwind(regBase, f, r)
			return 0

		default:
			m.throwf(minic.Pos{}, "vm: bad opcode %s", in.Op)
		}
	}
	if sp > 0 {
		return st[sp-1]
	}
	return 0
}

// unwind exits the regions a returning frame opened: a return inside an
// omp/offload body still runs the region exits, like the tree-walker's
// ctlReturn propagation.
func (m *machine) unwind(regBase int, f []float64, r []*interp.Array) {
	for len(m.regions) > regBase {
		if m.regions[len(m.regions)-1].kind == rPar {
			m.parExit()
		} else {
			m.offExit(f, r)
		}
	}
}

func (m *machine) parExit() {
	reg := m.regions[len(m.regions)-1]
	m.regions = m.regions[:len(m.regions)-1]
	if reg.inline {
		return
	}
	m.parallel = false
	m.vec = false
	m.refreshBucket()
	m.work.ParIters += reg.iters
}
