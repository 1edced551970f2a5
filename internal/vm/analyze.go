package vm

import "fmt"

// finalizeChunk validates a freshly compiled chunk and computes its
// operand-stack bounds by abstract interpretation over the CFG. Every
// instruction's entry stack depths must be consistent across all paths
// reaching it — a structural invariant the property tests also hold
// mutated chunks to via VerifyChunk.
func finalizeChunk(ch *Chunk, nGlobals, nFuncs int) error {
	peephole(ch)
	maxF, maxR, err := analyzeChunk(ch, nGlobals, nFuncs)
	if err != nil {
		return err
	}
	ch.MaxF = maxF
	ch.MaxR = maxR
	ch.Code = exact(ch.Code)
	ch.Consts = exact(ch.Consts)
	ch.Works = exact(ch.Works)
	ch.Positions = exact(ch.Positions)
	ch.Accesses = exact(ch.Accesses)
	return nil
}

// exact copies s into a slice of exactly its length, so a module cached
// for the life of a server retains no append slack.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// VerifyChunk checks a chunk's structural invariants: jump targets in
// bounds, descriptor/constant/slot indices in bounds, and operand stack
// depths consistent and non-negative on every path. nGlobals and nFuncs
// bound the module-level tables the chunk may reference.
func VerifyChunk(ch *Chunk, nGlobals, nFuncs int) error {
	_, _, err := analyzeChunk(ch, nGlobals, nFuncs)
	return err
}

type stackState struct {
	f, r    int
	visited bool
}

func analyzeChunk(ch *Chunk, nGlobals, nFuncs int) (int, int, error) {
	code := ch.Code
	n := len(code)
	states := make([]stackState, n+1) // n = fall-off-the-end exit
	maxF, maxR := 0, 0

	inBounds := func(idx int32, size int, what string, ip int) error {
		if idx < 0 || int(idx) >= size {
			return fmt.Errorf("instr %d (%s): %s index %d out of range [0,%d)", ip, code[ip].Op, what, idx, size)
		}
		return nil
	}

	// effect returns the float/ref stack deltas and the minimum entry
	// depths an instruction needs, after validating its operand indices.
	effect := func(ip int) (df, dr, needF, needR int, err error) {
		in := code[ip]
		if in.W != 0 {
			if !isBranch(in.Op) {
				return 0, 0, 0, 0, fmt.Errorf("instr %d (%s): work charge on a non-branch", ip, in.Op)
			}
			if err = inBounds(int32(in.W)-1, len(ch.Works), "charge", ip); err != nil {
				return 0, 0, 0, 0, err
			}
		}
		switch in.Op {
		case OpNop, OpWork, OpZero, OpInc, OpJmp, OpParEnter, OpParExit,
			OpOffEnter, OpOffExit, OpTransfer, OpWait, OpDevChk,
			OpGuardW, OpGuardF, OpGuardPar, OpIterTick, OpVecLoop:
			switch in.Op {
			case OpWork:
				err = inBounds(in.A, len(ch.Works), "work", ip)
			case OpZero, OpInc:
				err = inBounds(in.A, ch.NumSlots, "slot", ip)
			case OpGuardW, OpGuardF, OpGuardPar:
				if err = inBounds(in.A, ch.NumSlots, "slot", ip); err == nil {
					err = inBounds(in.B, len(ch.Positions), "pos", ip)
				}
			case OpOffEnter:
				err = inBounds(in.A, len(ch.Offloads), "offload", ip)
			case OpTransfer:
				err = inBounds(in.A, len(ch.Transfers), "transfer", ip)
			case OpWait:
				err = inBounds(in.A, len(ch.Waits), "wait", ip)
			case OpParEnter:
				err = inBounds(in.A, len(ch.Pars), "par", ip)
			case OpDevChk:
				if err = inBounds(in.A, nGlobals, "global", ip); err == nil {
					err = inBounds(in.B, len(ch.Positions), "pos", ip)
				}
			case OpVecLoop:
				err = inBounds(in.A, len(ch.VecLoops), "vecloop", ip)
			}
		case OpConst:
			df = 1
			err = inBounds(in.A, len(ch.Consts), "const", ip)
		case OpLoad:
			df = 1
			err = inBounds(in.A, ch.NumSlots, "slot", ip)
		case OpLoadG:
			df = 1
			err = inBounds(in.A, nGlobals, "global", ip)
		case OpStore, OpStoreT:
			df, needF = -1, 1
			err = inBounds(in.A, ch.NumSlots, "slot", ip)
		case OpStoreG:
			df, needF = -1, 1
			err = inBounds(in.A, nGlobals, "global", ip)
		case OpAdd, OpSub, OpMul, OpDivF, OpShl, OpShr,
			OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAndE, OpOrE:
			df, needF = -1, 2
		case OpDivI, OpMod:
			df, needF = -1, 2
			if in.A >= 0 {
				err = inBounds(in.A, len(ch.Positions), "pos", ip)
			}
		case OpNeg, OpNot, OpBool, OpTrunc:
			needF = 1
		case OpChkZ:
			needF = 1
			err = inBounds(in.A, len(ch.Positions), "pos", ip)
		case OpSwap:
			needF = 2
		case OpJz, OpJnz, OpPop, OpSetRet:
			df, needF = -1, 1
		case OpRefL:
			dr = 1
			if err = inBounds(in.A, ch.RefSlots, "ref slot", ip); err == nil {
				err = inBounds(in.B, len(ch.RefLs), "refl", ip)
			}
		case OpRefG:
			dr = 1
			if err = inBounds(in.A, nGlobals, "global", ip); err == nil {
				err = inBounds(in.B, len(ch.Positions), "pos", ip)
			}
		case OpRefNull:
			dr = 1
		case OpRefStoreL:
			dr, needR = -1, 1
			err = inBounds(in.A, ch.RefSlots, "ref slot", ip)
		case OpRefStoreG:
			dr, needR = -1, 1
			err = inBounds(in.A, nGlobals, "global", ip)
		case OpMalloc:
			df, needF, dr = -1, 1, 1
			err = inBounds(in.A, len(ch.Mallocs), "malloc", ip)
		case OpNewArr:
			df, needF = -1, 1
			if err = inBounds(in.A, len(ch.NewArrs), "newarr", ip); err == nil {
				err = inBounds(ch.NewArrs[in.A].Slot, ch.RefSlots, "ref slot", ip)
			}
		case OpLoadIdx:
			needF, dr, needR = 1, -1, 1
			err = inBounds(in.A, len(ch.Accesses), "access", ip)
		case OpStoreIdx:
			df, needF, dr, needR = -2, 2, -1, 1
			err = inBounds(in.A, len(ch.Accesses), "access", ip)
		case OpCall:
			if err = inBounds(in.A, nFuncs, "func", ip); err != nil {
				break
			}
			nNum := int(in.B >> 12)
			nRef := int(in.B & 0xfff)
			df, needF = 1-nNum, nNum
			dr, needR = -nRef, nRef
		case OpBuiltin:
			if in.A < 0 || int(in.A) >= len(builtinArity) {
				err = fmt.Errorf("instr %d: builtin kind %d out of range", ip, in.A)
				break
			}
			ar := builtinArity[in.A]
			df, needF = 1-ar, ar
		case OpPrintf:
			if err = inBounds(in.A, len(ch.Printfs), "printf", ip); err != nil {
				break
			}
			k := len(ch.Printfs[in.A].Kinds)
			df, needF = 1-k, k
		case OpRet:
			// terminal; no successors
		case OpCmpJmp:
			df, needF = -2, 2
			if in.B < 0 || in.B >= cmpCount<<1 {
				err = fmt.Errorf("instr %d: cmp kind %d out of range", ip, in.B)
			}
		case OpLoad2:
			df = 2
			if err = inBounds(in.A, ch.NumSlots, "slot", ip); err == nil {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpLoadIdxL:
			df, dr, needR = 1, -1, 1
			if err = inBounds(in.A, len(ch.Accesses), "access", ip); err == nil {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpAddL, OpSubL, OpMulL, OpDivL:
			needF = 1
			err = inBounds(in.A, ch.NumSlots, "slot", ip)
		case OpAddC, OpSubC, OpMulC, OpDivC:
			needF = 1
			err = inBounds(in.A, len(ch.Consts), "const", ip)
		case OpAddG, OpSubG, OpMulG, OpDivG:
			needF = 1
			err = inBounds(in.A, nGlobals, "global", ip)
		case OpMove, OpMoveT:
			if err = inBounds(in.A, ch.NumSlots, "slot", ip); err == nil {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpAddLC, OpSubLC, OpMulLC, OpDivLC:
			df = 1
			if err = inBounds(in.A, ch.NumSlots, "slot", ip); err == nil {
				err = inBounds(in.B, len(ch.Consts), "const", ip)
			}
		case OpStoreIdxL:
			df, needF, dr, needR = -1, 1, -1, 1
			if err = inBounds(in.A, len(ch.Accesses), "access", ip); err == nil {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpLoadIdxG, OpStoreIdxG:
			if in.Op == OpLoadIdxG {
				df = 1
			} else {
				df, needF = -1, 1
			}
			if err = inBounds(in.A, len(ch.Accesses), "access", ip); err == nil {
				if err = inBounds(in.B, ch.NumSlots, "slot", ip); err == nil {
					err = inBounds(ch.Accesses[in.A].GIdx, nGlobals, "global", ip)
				}
			}
		case OpCmpJmpC:
			df, needF = -1, 1
			if err = inBounds(in.B>>4, len(ch.Consts), "const", ip); err == nil && (in.B>>1)&7 >= cmpCount {
				err = fmt.Errorf("instr %d: cmp kind %d out of range", ip, (in.B>>1)&7)
			}
		case OpCmpJmpG:
			df, needF = -1, 1
			if err = inBounds(in.B>>4, nGlobals, "global", ip); err == nil && (in.B>>1)&7 >= cmpCount {
				err = fmt.Errorf("instr %d: cmp kind %d out of range", ip, (in.B>>1)&7)
			}
		case OpConstSt:
			if err = inBounds(in.A, len(ch.Consts), "const", ip); err == nil {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpConst2:
			df = 2
			if err = inBounds(in.A, len(ch.Consts), "const", ip); err == nil {
				err = inBounds(in.B, len(ch.Consts), "const", ip)
			}
		case OpLoadC:
			df = 2
			if err = inBounds(in.A, ch.NumSlots, "slot", ip); err == nil {
				err = inBounds(in.B, len(ch.Consts), "const", ip)
			}
		case OpNegL:
			df = 1
			err = inBounds(in.A, ch.NumSlots, "slot", ip)
		case OpBuiltinL:
			df = 1
			if int(in.A) >= len(builtinArity) || builtinArity[in.A] != 1 {
				err = fmt.Errorf("instr %d: BuiltinL kind %d is not a unary builtin", ip, in.A)
			} else {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpAddLL, OpSubLL, OpMulLL, OpDivLL:
			df = 1
			if err = inBounds(in.A, ch.NumSlots, "slot", ip); err == nil {
				err = inBounds(in.B, ch.NumSlots, "slot", ip)
			}
		case OpIncJmp:
			err = inBounds(in.B>>16, ch.NumSlots, "slot", ip)
		case OpBuiltin2L:
			df = 1
			if in.A != bPow && in.A != bFmin && in.A != bFmax {
				err = fmt.Errorf("instr %d: Builtin2L kind %d is not a binary builtin", ip, in.A)
			} else if err = inBounds(in.B>>16, ch.NumSlots, "slot", ip); err == nil {
				err = inBounds(in.B&0xffff, ch.NumSlots, "slot", ip)
			}
		case OpRetV:
			// terminal; pops the return value
			df, needF = -1, 1
		case OpRetL:
			// terminal
			err = inBounds(in.A, ch.NumSlots, "slot", ip)
		default:
			err = fmt.Errorf("instr %d: unknown opcode %d", ip, in.Op)
		}
		return df, dr, needF, needR, err
	}

	// Validate access descriptor positions once (not per reference).
	for i, a := range ch.Accesses {
		if a.Pos < 0 || int(a.Pos) >= len(ch.Positions) {
			return 0, 0, fmt.Errorf("access %d: pos index %d out of range", i, a.Pos)
		}
		if a.RefPos < 0 || int(a.RefPos) >= len(ch.Positions) {
			return 0, 0, fmt.Errorf("access %d: ref pos index %d out of range", i, a.RefPos)
		}
	}
	for i, d := range ch.RefLs {
		if d.Pos < 0 || int(d.Pos) >= len(ch.Positions) {
			return 0, 0, fmt.Errorf("refl %d: pos index %d out of range", i, d.Pos)
		}
	}
	for i, d := range ch.Mallocs {
		if d.Pos < 0 || int(d.Pos) >= len(ch.Positions) {
			return 0, 0, fmt.Errorf("malloc %d: pos index %d out of range", i, d.Pos)
		}
	}
	for i, d := range ch.NewArrs {
		if d.Pos < 0 || int(d.Pos) >= len(ch.Positions) {
			return 0, 0, fmt.Errorf("newarr %d: pos index %d out of range", i, d.Pos)
		}
	}
	if err := validateVecLoops(ch, nGlobals, nFuncs); err != nil {
		return 0, 0, err
	}

	if n == 0 {
		return 0, 0, nil
	}
	work := []int{0}
	states[0] = stackState{visited: true}
	enqueue := func(target, fd, rd int, ip int) error {
		if target < 0 || target > n {
			return fmt.Errorf("instr %d (%s): jump target %d out of range [0,%d]", ip, code[ip].Op, target, n)
		}
		s := &states[target]
		if s.visited {
			if s.f != fd || s.r != rd {
				return fmt.Errorf("instr %d: inconsistent stack depth at target %d (%d/%d vs %d/%d)", ip, target, s.f, s.r, fd, rd)
			}
			return nil
		}
		*s = stackState{f: fd, r: rd, visited: true}
		if target < n {
			work = append(work, target)
		}
		return nil
	}
	for len(work) > 0 {
		ip := work[len(work)-1]
		work = work[:len(work)-1]
		st := states[ip]
		df, dr, needF, needR, err := effect(ip)
		if err != nil {
			return 0, 0, err
		}
		if st.f < needF || st.r < needR {
			return 0, 0, fmt.Errorf("instr %d (%s): stack underflow (have %d/%d, need %d/%d)", ip, code[ip].Op, st.f, st.r, needF, needR)
		}
		fd, rd := st.f+df, st.r+dr
		if fd > maxF {
			maxF = fd
		}
		if rd > maxR {
			maxR = rd
		}
		in := code[ip]
		switch in.Op {
		case OpRet, OpRetV, OpRetL:
			// no successors
		case OpJmp, OpIncJmp:
			if err := enqueue(int(in.A), fd, rd, ip); err != nil {
				return 0, 0, err
			}
		case OpJz, OpJnz, OpCmpJmp, OpCmpJmpC, OpCmpJmpG:
			if err := enqueue(int(in.A), fd, rd, ip); err != nil {
				return 0, 0, err
			}
			if err := enqueue(ip+1, fd, rd, ip); err != nil {
				return 0, 0, err
			}
		default:
			if err := enqueue(ip+1, fd, rd, ip); err != nil {
				return 0, 0, err
			}
		}
	}
	return maxF, maxR, nil
}
