package vm

import (
	"fmt"
	"math"
	"unsafe"

	"comp/internal/interp"
)

// colScratch is the columnar tier's working memory: colBlock-sized
// register columns, the per-batch register table (cLoad rebinds entries
// to array windows) and the resolved site arrays. It lives on the machine,
// so a pooled machine's next run reuses its columns instead of allocating
// them; release clears regs and arrs, the entries that can point into
// program arrays.
type colScratch struct {
	cols [][]float64
	regs [][]float64
	arrs []*interp.Array
}

// runVecLoop executes one fused loop in blocked columnar batches, then
// falls through to the unchanged scalar head. Every bail-out path simply
// returns with nothing consumed: the scalar loop then runs (and faults)
// natively, so the tier never has to reproduce a fault itself. The batch
// is clamped so that every iteration it covers is one the scalar loop
// would have completed without faulting — ragged tails, out-of-range
// indices, and budget exhaustion all land in the scalar code.
func (m *machine) runVecLoop(ch *Chunk, d *VecLoopDesc, f []float64, r []*interp.Array) {
	if m.eng.scalar {
		return
	}
	if m.budgetOn && m.budget <= 0 {
		return
	}
	var lo float64
	if d.IdxSlot >= 0 {
		lo = f[d.IdxSlot]
	} else {
		lo = m.gval(d.IdxG)
	}
	// Non-integral or out-of-range starts (a negative index would fault
	// scalar-side on the first access) stay scalar.
	if lo != math.Trunc(lo) || lo < 0 || lo > 1<<31 {
		return
	}
	ilo := int64(lo)
	c := &m.col
	if len(c.arrs) < len(d.Sites) {
		c.arrs = make([]*interp.Array, len(d.Sites))
	}
	arrs := c.arrs[:len(d.Sites)]
	for i, s := range d.Sites {
		var a *interp.Array
		if s.Local {
			a = r[s.A]
		} else if m.onDevice {
			// Same device resolution as garr, but a missing buffer bails
			// to scalar, which throws the exact fault at the exact site.
			a = m.devArrs[s.A]
			if a == nil {
				a = m.p.DevBuf(m.mod.Globals[s.A].Name)
				if a != nil {
					m.devArrs[s.A] = a
				}
			}
		} else {
			a = m.globals[s.A].Arr()
		}
		if a == nil || a.Fields != 1 {
			return
		}
		arrs[i] = a
	}
	upper := m.evalBlock(ch, d.Upper, f, r)
	var guess float64
	if d.LE {
		guess = math.Floor(upper-lo) + 1
	} else {
		guess = math.Ceil(upper - lo)
	}
	if !(guess > 0) { // also rejects NaN bounds
		return
	}
	k := int64(1) << 31
	if guess < float64(k) {
		k = int64(guess)
	}
	// Clamp to the shortest site so a bounds fault replays scalar-side:
	// the last lane's index Stride*(ilo+k-1)+Off must be in range. A
	// strided site's first index can be negative where ilo is not; the
	// scalar loop then faults in its first iteration.
	gathers := false
	for i, s := range d.Sites {
		st, off := int64(s.Stride), int64(s.Off)
		last := int64(arrs[i].Len()) - 1 - off
		if st*ilo+off < 0 || last < 0 {
			return
		}
		if n := last/st - ilo + 1; n < k {
			k = n
		}
		gathers = gathers || !s.unit()
	}
	// A gather reads its lanes before the batch stores any: a gathered
	// array that shares storage with a stored site would read values the
	// scalar loop overwrites first, so such loops stay scalar.
	if gathers && gatherAliased(d, arrs) {
		return
	}
	if m.budgetOn && k > m.budget {
		k = m.budget
	}
	// Tighten against the exact scalar condition (float compare on the
	// last covered iteration) so the batch never runs an iteration the
	// scalar loop would not; the condition is monotone in i, so checking
	// the last lane covers them all.
	for k > 0 {
		last := float64(ilo + k - 1)
		if (d.LE && last <= upper) || (!d.LE && last < upper) {
			break
		}
		k--
	}
	if k <= 0 {
		return
	}
	m.colExec(ch, d, f, arrs, ilo, k)
	m.vecRuns++

	// Finalization: the same accounting K scalar iterations perform.
	// Work: condition + body + post charges per trip.
	m.bucket.Flops += float64(k) * d.PerIter.W
	m.bucket.Bytes += float64(k) * d.PerIter.B
	m.bucket.IrrBytes += float64(k) * d.PerIter.Irr
	// Budget: one spendIteration per trip (never faulting — k is clamped).
	if m.budgetOn {
		m.budget -= k
	}
	// Guard/iteration counters, matching OpGuardF/OpGuardPar/OpIterTick:
	// plain and inline-parallel loops bump the hidden guard slot; a
	// top-level parallel region counts iterations on the region instead.
	if d.Par {
		reg := m.regions[len(m.regions)-1]
		if reg.inline {
			f[d.GuardSlot] += float64(k)
		} else {
			reg.iters += k
		}
	} else {
		f[d.GuardSlot] += float64(k)
	}
	// Device-touch ranges: each global site saw exactly the indices
	// Stride*i+Off for i in [ilo, ilo+k-1], recorded by their endpoints
	// in the site's global's touch slot.
	if m.tracking {
		for i, s := range d.Sites {
			if !s.Local {
				st, off := int64(s.Stride), int64(s.Off)
				m.touch(s.A, arrs[i], st*ilo+off)
				m.touch(s.A, arrs[i], st*(ilo+k-1)+off)
			}
		}
	}
	// Advance the induction variable past the batch; the scalar head
	// takes over from there (final failing condition check included).
	end := float64(ilo + k)
	if d.IdxSlot >= 0 {
		f[d.IdxSlot] = end
	} else {
		m.gstore(d.IdxG, end)
	}
}

// gatherAliased reports whether the array of any strided (gathered) site
// overlaps the array of any site the program stores to.
func gatherAliased(d *VecLoopDesc, arrs []*interp.Array) bool {
	for _, in := range d.Prog {
		if in.Kind != cStore {
			continue
		}
		for i, s := range d.Sites {
			if !s.unit() && overlaps(arrs[i].Data, arrs[in.Site].Data) {
				return true
			}
		}
	}
	return false
}

// overlaps reports whether two slices share any backing memory.
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const w = unsafe.Sizeof(float64(0))
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b))*w && pb < pa+uintptr(len(a))*w
}

// colExec runs the column program over k iterations in blocks of colBlock.
func (m *machine) colExec(ch *Chunk, d *VecLoopDesc, f []float64, arrs []*interp.Array, ilo, k int64) {
	n := int(d.NRegs)
	c := &m.col
	if len(c.cols) < n {
		slab := make([]float64, n*colBlock)
		c.cols = make([][]float64, n)
		for i := range c.cols {
			c.cols[i] = slab[i*colBlock : (i+1)*colBlock : (i+1)*colBlock]
		}
		c.regs = make([][]float64, n)
	}
	regs := c.regs[:n]
	// Broadcast loop-invariant scalars once per batch; the body cannot
	// write them (qualification rejects such loops).
	for _, im := range d.Imms {
		col := c.cols[im.Dst]
		var val float64
		switch im.Kind {
		case vimConst:
			val = ch.Consts[im.A]
		case vimLocal:
			val = f[im.A]
		default:
			val = m.gval(im.A)
		}
		for j := range col {
			col[j] = val
		}
	}
	for done := int64(0); done < k; done += colBlock {
		bn := int(k - done)
		if bn > colBlock {
			bn = colBlock
		}
		base := int(ilo + done)
		// Restore register headers: cLoad rebinds views to fresh windows
		// each block; everything else reuses its pooled column.
		copy(regs, c.cols[:n])
		if d.IotaReg >= 0 {
			col := regs[d.IotaReg]
			for j := 0; j < bn; j++ {
				col[j] = float64(base + j)
			}
		}
		for _, in := range d.Prog {
			m.colStep(in, d.Sites, regs, arrs, base, bn)
		}
	}
}

// colStep executes one column instruction over bn lanes. Lane semantics
// are copied from the scalar dispatch loop op for op (same conversions,
// same boolToF normalization), so values are bit-identical.
func (m *machine) colStep(in ColIns, sites []VecSite, regs [][]float64, arrs []*interp.Array, base, bn int) {
	switch in.Kind {
	case cLoad:
		a := arrs[in.Site]
		regs[in.Dst] = a.Data[base : base+bn]
	case cStore:
		a := arrs[in.Site]
		copy(a.Data[base:base+bn], regs[in.X][:bn])
	case cGather:
		s, data, d := sites[in.Site], arrs[in.Site].Data, regs[in.Dst]
		st := int(s.Stride)
		at := st*base + int(s.Off)
		for j := 0; j < bn; j++ {
			d[j] = data[at]
			at += st
		}
	case cMov:
		copy(regs[in.Dst][:bn], regs[in.X][:bn])
	case cTrunc:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Trunc(x[j])
		}
	case cNeg:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = -x[j]
		}
	case cNot:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] == 0)
		}
	case cAdd:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = x[j] + y[j]
		}
	case cSub:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = x[j] - y[j]
		}
	case cMul:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = x[j] * y[j]
		}
	case cDivF:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = x[j] / y[j]
		}
	case cDivI:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = math.Trunc(x[j] / y[j])
		}
	case cMod:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = float64(int64(x[j]) % int64(y[j]))
		}
	case cShl:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = float64(int64(x[j]) << uint(int64(y[j])))
		}
	case cShr:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = float64(int64(x[j]) >> uint(int64(y[j])))
		}
	case cEq:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] == y[j])
		}
	case cNe:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] != y[j])
		}
	case cLt:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] < y[j])
		}
	case cLe:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] <= y[j])
		}
	case cGt:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] > y[j])
		}
	case cGe:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] >= y[j])
		}
	case cAndE:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] != 0 && y[j] != 0)
		}
	case cOrE:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = boolToF(x[j] != 0 || y[j] != 0)
		}
	case cSel:
		d, x, y, z := regs[in.Dst], regs[in.X], regs[in.Y], regs[in.Z]
		for j := 0; j < bn; j++ {
			if x[j] != 0 {
				d[j] = y[j]
			} else {
				d[j] = z[j]
			}
		}
	case cSqrt:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Sqrt(x[j])
		}
	case cExp:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Exp(x[j])
		}
	case cLog:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Log(x[j])
		}
	case cPow:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = math.Pow(x[j], y[j])
		}
	case cFabs:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Abs(x[j])
		}
	case cFloor:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Floor(x[j])
		}
	case cCeil:
		d, x := regs[in.Dst], regs[in.X]
		for j := 0; j < bn; j++ {
			d[j] = math.Ceil(x[j])
		}
	case cFmin:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = math.Min(x[j], y[j])
		}
	case cFmax:
		d, x, y := regs[in.Dst], regs[in.X], regs[in.Y]
		for j := 0; j < bn; j++ {
			d[j] = math.Max(x[j], y[j])
		}
	}
}

// ---- verification ----

// validateVecLoops holds every descriptor to the invariants the batch
// engine relies on for memory safety: register/site/imm indices in range,
// immediate registers never written by the program (a corrupted write
// could zero a "verified nonzero" divisor), integer division/modulus
// divisors nonzero constants, and the bound block pure and verifiable as
// a straight-line chunk.
func validateVecLoops(ch *Chunk, nGlobals, nFuncs int) error {
	for i, d := range ch.VecLoops {
		if err := validateVecLoop(ch, d, nGlobals, nFuncs); err != nil {
			return fmt.Errorf("vecloop %d: %w", i, err)
		}
	}
	return nil
}

func validateVecLoop(ch *Chunk, d *VecLoopDesc, nGlobals, nFuncs int) error {
	if (d.IdxSlot >= 0) == (d.IdxG >= 0) {
		return fmt.Errorf("index must bind exactly one of slot/global (slot %d, global %d)", d.IdxSlot, d.IdxG)
	}
	if d.IdxSlot >= 0 && int(d.IdxSlot) >= ch.NumSlots {
		return fmt.Errorf("index slot %d out of range [0,%d)", d.IdxSlot, ch.NumSlots)
	}
	if d.IdxG >= 0 && int(d.IdxG) >= nGlobals {
		return fmt.Errorf("index global %d out of range [0,%d)", d.IdxG, nGlobals)
	}
	if d.GuardSlot < 0 || int(d.GuardSlot) >= ch.NumSlots {
		return fmt.Errorf("guard slot %d out of range [0,%d)", d.GuardSlot, ch.NumSlots)
	}
	if d.NRegs < 0 {
		return fmt.Errorf("negative register count %d", d.NRegs)
	}
	immDst := make(map[int32]bool, len(d.Imms))
	constVal := map[int32]float64{}
	for i, im := range d.Imms {
		if im.Dst < 0 || im.Dst >= d.NRegs {
			return fmt.Errorf("imm %d: dst register %d out of range [0,%d)", i, im.Dst, d.NRegs)
		}
		if immDst[im.Dst] {
			return fmt.Errorf("imm %d: dst register %d written twice", i, im.Dst)
		}
		immDst[im.Dst] = true
		switch im.Kind {
		case vimConst:
			if im.A < 0 || int(im.A) >= len(ch.Consts) {
				return fmt.Errorf("imm %d: const %d out of range [0,%d)", i, im.A, len(ch.Consts))
			}
			constVal[im.Dst] = ch.Consts[im.A]
		case vimLocal:
			if im.A < 0 || int(im.A) >= ch.NumSlots {
				return fmt.Errorf("imm %d: slot %d out of range [0,%d)", i, im.A, ch.NumSlots)
			}
		case vimGlobal:
			if im.A < 0 || int(im.A) >= nGlobals {
				return fmt.Errorf("imm %d: global %d out of range [0,%d)", i, im.A, nGlobals)
			}
		default:
			return fmt.Errorf("imm %d: unknown kind %d", i, im.Kind)
		}
	}
	if d.IotaReg >= 0 {
		if d.IotaReg >= d.NRegs {
			return fmt.Errorf("iota register %d out of range [0,%d)", d.IotaReg, d.NRegs)
		}
		if immDst[d.IotaReg] {
			return fmt.Errorf("iota register %d collides with an immediate", d.IotaReg)
		}
	}
	for i, s := range d.Sites {
		if s.Stride <= 0 || s.Stride > maxSiteOff {
			return fmt.Errorf("site %d: stride %d outside [1, %d]", i, s.Stride, maxSiteOff)
		}
		if s.Off < -maxSiteOff || s.Off > maxSiteOff {
			return fmt.Errorf("site %d: offset %d outside ±%d", i, s.Off, maxSiteOff)
		}
		if s.Local {
			if s.A < 0 || int(s.A) >= ch.RefSlots {
				return fmt.Errorf("site %d: ref slot %d out of range [0,%d)", i, s.A, ch.RefSlots)
			}
		} else if s.A < 0 || int(s.A) >= nGlobals {
			return fmt.Errorf("site %d: global %d out of range [0,%d)", i, s.A, nGlobals)
		}
	}
	for i, in := range d.Prog {
		if in.Kind < 0 || in.Kind >= cColCount {
			return fmt.Errorf("prog %d: unknown column op %d", i, in.Kind)
		}
		info := colInfo[in.Kind]
		if info.site && (in.Site < 0 || int(in.Site) >= len(d.Sites)) {
			return fmt.Errorf("prog %d (%s): site %d out of range [0,%d)", i, info.name, in.Site, len(d.Sites))
		}
		if info.hasDst {
			if in.Dst < 0 || in.Dst >= d.NRegs {
				return fmt.Errorf("prog %d (%s): dst register %d out of range [0,%d)", i, info.name, in.Dst, d.NRegs)
			}
			if immDst[in.Dst] {
				return fmt.Errorf("prog %d (%s): writes immediate register %d", i, info.name, in.Dst)
			}
		}
		args := [3]int32{in.X, in.Y, in.Z}
		for a := 0; a < info.args; a++ {
			if args[a] < 0 || args[a] >= d.NRegs {
				return fmt.Errorf("prog %d (%s): operand register %d out of range [0,%d)", i, info.name, args[a], d.NRegs)
			}
		}
		switch in.Kind {
		case cLoad, cStore:
			if !d.Sites[in.Site].unit() {
				return fmt.Errorf("prog %d (%s): strided site %d", i, info.name, in.Site)
			}
		case cGather:
			if d.Sites[in.Site].unit() {
				return fmt.Errorf("prog %d (%s): unit site %d", i, info.name, in.Site)
			}
		case cDivI:
			if v, ok := constVal[in.Y]; !ok || v == 0 {
				return fmt.Errorf("prog %d: integer division needs a nonzero constant divisor", i)
			}
		case cMod:
			if v, ok := constVal[in.Y]; !ok || int64(v) == 0 {
				return fmt.Errorf("prog %d: modulus needs a nonzero (as int64) constant divisor", i)
			}
		}
	}
	if len(d.Upper) == 0 {
		return fmt.Errorf("missing bound block")
	}
	for i, in := range d.Upper {
		switch in.Op {
		case OpConst, OpLoad, OpLoadG, OpAdd, OpSub, OpMul, OpNeg:
		default:
			return fmt.Errorf("bound instr %d: op %s not allowed in a bound block", i, in.Op)
		}
	}
	// The bound block executes through the regular dispatch loop against
	// the enclosing frame; verify it like a chunk of its own (the shadow
	// carries no VecLoops, so this cannot recurse).
	shadow := &Chunk{
		Name: ch.Name, NumSlots: ch.NumSlots, RefSlots: ch.RefSlots,
		Code: d.Upper, Consts: ch.Consts, Works: ch.Works, Positions: ch.Positions,
	}
	if _, _, err := analyzeChunk(shadow, nGlobals, nFuncs); err != nil {
		return fmt.Errorf("bound block: %w", err)
	}
	return nil
}
