package vm

import "math"

// The peephole pass rewrites a chunk's baseline encoding into fused
// superinstructions after jump patching. Fusion is purely local: a pair
// (i, i+1) collapses into one instruction only when control cannot enter
// between them, i.e. i+1 is not the target of any jump. Jump targets are
// remapped to the rewritten indices afterwards, so the pass preserves the
// chunk's CFG exactly and the verifier re-checks the result. The pass runs
// to a fixpoint because one rewrite can expose another (OpRefG + OpLoadIdxL
// only exists after OpLoad + OpLoadIdx fused).
//
// Only pairs with no independent failure semantics are fused: comparisons
// feeding a conditional jump, pushes feeding a plain float binop, moves,
// and array element accesses. Integer div/mod (zero checks), shifts, and
// the region/call opcodes keep their baseline encoding. The global access
// fusions additionally require the access descriptor to agree with the
// OpRefG operands, so fault positions stay bit-identical to the
// tree-walker's.

// inlineIdxLimit bounds the operand index packable into OpCmpJmpC/G's B
// field next to the comparison kind and sense bits.
const inlineIdxLimit = 1 << 27

// cmpKindOf maps a comparison opcode to its OpCmpJmp kind.
func cmpKindOf(op Op) (int32, bool) {
	switch op {
	case OpEq:
		return cmpEq, true
	case OpNe:
		return cmpNe, true
	case OpLt:
		return cmpLt, true
	case OpLe:
		return cmpLe, true
	case OpGt:
		return cmpGt, true
	case OpGe:
		return cmpGe, true
	}
	return 0, false
}

// arithFused returns the fused opcode for a float binop whose second
// operand comes from a local (base OpLoad), a constant, or a global.
func arithFused(bin, src Op) (Op, bool) {
	var k int
	switch bin {
	case OpAdd:
		k = 0
	case OpSub:
		k = 1
	case OpMul:
		k = 2
	case OpDivF:
		k = 3
	default:
		return OpNop, false
	}
	switch src {
	case OpLoad:
		return OpAddL + Op(k), true
	case OpConst:
		return OpAddC + Op(k), true
	case OpLoadG:
		return OpAddG + Op(k), true
	}
	return OpNop, false
}

// constIdx interns v into the chunk's constant pool, reusing an existing
// entry when one matches bit-for-bit (NaN folds never arise here: the pass
// only folds Neg/Trunc of literals the front end emitted).
func constIdx(ch *Chunk, v float64) int32 {
	for i, c := range ch.Consts {
		if math.Float64bits(c) == math.Float64bits(v) {
			return int32(i)
		}
	}
	ch.Consts = append(ch.Consts, v)
	return int32(len(ch.Consts) - 1)
}

// fusePair returns the fused replacement for the instruction pair (a, b),
// or ok=false when the pair has no fusion.
func fusePair(ch *Chunk, a, b Instr) (Instr, bool) {
	if k, ok := cmpKindOf(a.Op); ok {
		switch b.Op {
		case OpJz:
			return Instr{Op: OpCmpJmp, A: b.A, B: k << 1}, true
		case OpJnz:
			return Instr{Op: OpCmpJmp, A: b.A, B: k<<1 | 1}, true
		}
		return Instr{}, false
	}
	if op, ok := arithFused(b.Op, a.Op); ok {
		return Instr{Op: op, A: a.A}, true
	}
	switch a.Op {
	case OpLoad:
		switch b.Op {
		case OpLoadIdx:
			return Instr{Op: OpLoadIdxL, A: b.A, B: a.A}, true
		case OpStoreIdx:
			return Instr{Op: OpStoreIdxL, A: b.A, B: a.A}, true
		case OpStore:
			return Instr{Op: OpMove, A: a.A, B: b.A}, true
		case OpStoreT:
			return Instr{Op: OpMoveT, A: a.A, B: b.A}, true
		case OpAddC, OpSubC, OpMulC, OpDivC:
			return Instr{Op: OpAddLC + (b.Op - OpAddC), A: a.A, B: b.A}, true
		case OpLoad:
			return Instr{Op: OpLoad2, A: a.A, B: b.A}, true
		case OpConst:
			return Instr{Op: OpLoadC, A: a.A, B: b.A}, true
		case OpNeg:
			return Instr{Op: OpNegL, A: a.A}, true
		case OpBuiltin:
			if int(b.A) < len(builtinArity) && builtinArity[b.A] == 1 {
				return Instr{Op: OpBuiltinL, A: b.A, B: a.A}, true
			}
		case OpRetV:
			return Instr{Op: OpRetL, A: a.A}, true
		}
	case OpLoad2:
		// Both binop inputs come straight from frame slots.
		switch b.Op {
		case OpAdd:
			return Instr{Op: OpAddLL, A: a.A, B: a.B}, true
		case OpSub:
			return Instr{Op: OpSubLL, A: a.A, B: a.B}, true
		case OpMul:
			return Instr{Op: OpMulLL, A: a.A, B: a.B}, true
		case OpDivF:
			return Instr{Op: OpDivLL, A: a.A, B: a.B}, true
		case OpBuiltin:
			if (b.A == bPow || b.A == bFmin || b.A == bFmax) && a.A < 1<<15 && a.B < 1<<15 {
				return Instr{Op: OpBuiltin2L, A: b.A, B: a.A<<16 | a.B}, true
			}
		}
	case OpLoadC:
		// Slot-and-constant push feeding a binop collapses to the LC form.
		switch b.Op {
		case OpAdd:
			return Instr{Op: OpAddLC, A: a.A, B: a.B}, true
		case OpSub:
			return Instr{Op: OpSubLC, A: a.A, B: a.B}, true
		case OpMul:
			return Instr{Op: OpMulLC, A: a.A, B: a.B}, true
		case OpDivF:
			return Instr{Op: OpDivLC, A: a.A, B: a.B}, true
		}
	case OpConst2:
		// Two literals feeding a binop fold at compile time: the runtime
		// would perform the identical float64 operation.
		var v float64
		switch b.Op {
		case OpAdd:
			v = ch.Consts[a.A] + ch.Consts[a.B]
		case OpSub:
			v = ch.Consts[a.A] - ch.Consts[a.B]
		case OpMul:
			v = ch.Consts[a.A] * ch.Consts[a.B]
		case OpDivF:
			v = ch.Consts[a.A] / ch.Consts[a.B]
		default:
			return Instr{}, false
		}
		return Instr{Op: OpConst, A: constIdx(ch, v)}, true
	case OpConst:
		switch b.Op {
		case OpCmpJmp:
			if a.A < inlineIdxLimit {
				return Instr{Op: OpCmpJmpC, A: b.A, B: a.A<<4 | b.B}, true
			}
		case OpNeg:
			// Fold: negating a literal at compile time produces the same
			// float64 bits the runtime negation would.
			return Instr{Op: OpConst, A: constIdx(ch, -ch.Consts[a.A])}, true
		case OpTrunc:
			return Instr{Op: OpConst, A: constIdx(ch, math.Trunc(ch.Consts[a.A]))}, true
		case OpStore:
			return Instr{Op: OpConstSt, A: a.A, B: b.A}, true
		case OpStoreT:
			return Instr{Op: OpConstSt, A: constIdx(ch, math.Trunc(ch.Consts[a.A])), B: b.A}, true
		case OpConst:
			return Instr{Op: OpConst2, A: a.A, B: b.A}, true
		}
	case OpSetRet:
		if b.Op == OpRet {
			return Instr{Op: OpRetV}, true
		}
	case OpInc:
		// Loop latch: step-then-jump with the step zig-zagged next to the
		// slot. Steps outside 16 bits keep the baseline pair.
		if b.Op == OpJmp && a.B > -incBias && a.B < incBias && a.A < 1<<15 {
			return Instr{Op: OpIncJmp, A: b.A, B: a.A<<16 | (a.B + incBias)}, true
		}
	case OpLoadG:
		if b.Op == OpCmpJmp && a.A < inlineIdxLimit {
			return Instr{Op: OpCmpJmpG, A: b.A, B: a.A<<4 | b.B}, true
		}
	case OpRefG:
		// Whole-site global access: only when the access descriptor names
		// the same global as the OpRefG being absorbed. The RefG's own
		// fault position is recorded in the (per-site) descriptor so
		// missing-storage errors stay bit-identical.
		var op Op
		switch b.Op {
		case OpLoadIdxL:
			op = OpLoadIdxG
		case OpStoreIdxL:
			op = OpStoreIdxG
		default:
			return Instr{}, false
		}
		if int(b.A) >= len(ch.Accesses) {
			return Instr{}, false
		}
		if acc := &ch.Accesses[b.A]; acc.GIdx == a.A {
			acc.RefPos = a.B
			return Instr{Op: op, A: b.A, B: b.B}, true
		}
	}
	return Instr{}, false
}

// peepholeOnce performs one fusion sweep; it reports whether any pair fused.
// A fused branch keeps the charge its branch half carried (Instr.W): only
// branches carry one, and a branch is only ever the second of a pair.
func peepholeOnce(ch *Chunk) bool {
	code := ch.Code
	n := len(code)
	isTarget := jumpTargets(code)
	out := make([]Instr, 0, n)
	remap := make([]int32, n+1)
	for i := 0; i < n; {
		remap[i] = int32(len(out))
		if i+1 < n && !isTarget[i+1] {
			if f, ok := fusePair(ch, code[i], code[i+1]); ok {
				f.W = code[i+1].W
				remap[i+1] = int32(len(out))
				out = append(out, f)
				i += 2
				continue
			}
		}
		out = append(out, code[i])
		i++
	}
	remap[n] = int32(len(out))
	remapTargets(out, remap, n)
	shrunk := len(out) < n
	ch.Code = out
	return shrunk
}

// jumpTargets marks every in-range branch target of code.
func jumpTargets(code []Instr) []bool {
	n := len(code)
	isTarget := make([]bool, n+1)
	for _, in := range code {
		if isBranch(in.Op) && in.A >= 0 && int(in.A) <= n {
			isTarget[in.A] = true
		}
	}
	return isTarget
}

// remapTargets rewrites the branch targets of out through remap, the map
// from the n old instruction indices (and n itself) to the new ones.
// Out-of-range targets are left for the verifier to reject.
func remapTargets(out []Instr, remap []int32, n int) {
	for j := range out {
		if t := out[j].A; isBranch(out[j].Op) && t >= 0 && int(t) <= n {
			out[j].A = remap[t]
		}
	}
}

// peephole rewrites ch.Code in place, iterating until no pair fuses.
// Work-charge coalescing runs first: it both removes dispatches and joins
// statements, exposing cross-statement pairs to the fusion sweep.
func peephole(ch *Chunk) {
	mergeWork(ch)
	for peepholeOnce(ch) {
	}
}

// workBoundary reports whether in ends a Work-coalescing block. A later
// OpWork may fold into an earlier one only when no instruction between them
// can flush accounting to the Backend (calls, region brackets, transfers)
// or leave the straight-line path (jumps, returns). Faulting instructions
// are not boundaries: a fault aborts the run before any flush, so the
// pending bucket is dropped identically in both engines.
func workBoundary(op Op) bool {
	switch op {
	case OpCall, OpParEnter, OpParExit, OpOffEnter, OpOffExit,
		OpTransfer, OpWait, OpRet, OpRetV, OpRetL:
		return true
	}
	return isBranch(op)
}

// mergeWork folds every OpWork in a straight-line block into the block's
// first, summing the charge triples. The bucket only accumulates between
// flush points, so charge order within a block is unobservable. A block
// that ends on a branch goes one step further: its charge moves onto the
// branch (Instr.W) and its OpWork disappears, so the block pays no
// dispatch for its charge. A jump target starts a new block, so a branch
// that is one never takes the charge of the block falling into it; and
// OpVecLoop, which charges the bucket itself, ends a block without
// folding. A charge index that does not fit in W keeps its OpWork. The sweep also drops OpNop, the placeholder of a
// statement that charges nothing.
func mergeWork(ch *Chunk) {
	code := ch.Code
	n := len(code)
	isTarget := jumpTargets(code)
	out := make([]Instr, 0, n)
	remap := make([]int32, n+1)
	anchor := -1    // index in out of the block's first OpWork
	anchorSrc := -1 // its index in code
	var sum WorkTriple
	merged := false
	// endBlock closes the block whose last instruction is code[end]; fold
	// moves its charge onto out's last instruction, the block's branch.
	endBlock := func(end int, fold bool) {
		if anchor < 0 {
			return
		}
		k := out[anchor].A
		if merged {
			ch.Works = append(ch.Works, sum)
			k = int32(len(ch.Works) - 1)
		}
		if fold && k < math.MaxUint16 {
			last := len(out) - 1
			out[last].W = uint16(k + 1)
			copy(out[anchor:], out[anchor+1:])
			out = out[:last]
			for j := anchorSrc + 1; j <= end; j++ {
				remap[j]--
			}
		} else {
			out[anchor].A = k
		}
		anchor = -1
		merged = false
	}
	for i := 0; i < n; i++ {
		if isTarget[i] {
			endBlock(i-1, false)
		}
		remap[i] = int32(len(out))
		in := code[i]
		if in.Op == OpNop {
			continue
		}
		if in.Op == OpWork && int(in.A) < len(ch.Works) {
			if anchor < 0 {
				anchor, anchorSrc = len(out), i
				sum = ch.Works[in.A]
				out = append(out, in)
			} else {
				w := ch.Works[in.A]
				sum.W += w.W
				sum.B += w.B
				sum.Irr += w.Irr
				merged = true
			}
			continue
		}
		out = append(out, in)
		if workBoundary(in.Op) || in.Op == OpVecLoop {
			endBlock(i, isBranch(in.Op))
		}
	}
	endBlock(n-1, false)
	remap[n] = int32(len(out))
	remapTargets(out, remap, n)
	ch.Code = out
}
