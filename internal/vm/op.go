// Package vm compiles MiniC ASTs to compact bytecode and executes them on
// a stack machine. It is a drop-in execution engine for internal/interp:
// bit-identical outputs (arrays, scalars, printf), the same Work reported
// to the Backend at the same flush points, and the same *RuntimeError on
// every fault. The tree-walker stays the reference semantics; the vmdiff
// harness in this package holds the VM to it on every workload, every
// transform golden, and randomly generated programs.
package vm

import (
	"comp/internal/interp"
	"comp/internal/minic"
)

// Op is a bytecode opcode.
type Op uint8

// The instruction set. Numeric values travel on a float64 operand stack;
// array references travel on a separate ref stack (mirroring the
// tree-walker's split between exprFn and refFn).
const (
	OpNop Op = iota

	// Constants and locals.
	OpConst  // push Consts[A]
	OpLoad   // push f[A]
	OpStore  // f[A] = pop
	OpStoreT // f[A] = trunc(pop)   (int-typed assignment)
	OpZero   // f[A] = 0
	OpInc    // f[A] += B            (++/-- on a numeric local)

	// Globals (device-aware: reads prefer the device cell on-device).
	OpLoadG  // push global Globals[A]
	OpStoreG // global Globals[A] = pop

	// Arithmetic and comparison (pop b, pop a, push a OP b).
	OpAdd
	OpSub
	OpMul
	OpDivF
	OpDivI // integer division; A = pos index or -1 (compound-assign context)
	OpMod  // integer modulus; A = pos index or -1
	OpShl
	OpShr
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAndE // eager &&, compound-assign context
	OpOrE  // eager ||, compound-assign context

	// Unary.
	OpNeg
	OpNot
	OpBool  // v != 0 -> 1/0 (short-circuit rhs coercion)
	OpTrunc // math.Trunc

	// Control flow. Targets are absolute instruction indices.
	OpJmp // ip = A
	OpJz  // pop; if == 0 then ip = A
	OpJnz // pop; if != 0 then ip = A
	OpPop // discard top

	OpSwap // swap the top two stack values
	// OpChkZ throws division/modulus-by-zero at Positions[A] when the top
	// of stack is zero, without popping. B = 1 selects the modulus form
	// (int64 conversion before the check). The tree-walker evaluates an
	// integer division's denominator first and faults before touching the
	// numerator; OpChkZ preserves that order.
	OpChkZ

	// Cost model: charge Works[A] to the current bucket. mergeWork moves
	// a block's charge onto the block's terminating branch where it can
	// (Instr.W), so OpWork survives only in blocks that end otherwise.
	OpWork

	// Loop guards. A = hidden counter slot, B = pos index.
	OpGuardW   // while loop: max-iteration guard + budget
	OpGuardF   // for loop: max-iteration guard + budget
	OpGuardPar // omp loop head: for-guard when nested inline, budget only at top level
	OpIterTick // count one parallel iteration (top-level omp regions only)

	// Regions.
	OpParEnter // A = par desc: enter parallel mode (or inline when nested)
	OpParExit
	OpOffEnter // A = offload desc: flush, eval specs, copy-in, swap to kernel work
	OpOffExit  // report OffloadOp, copy-out, frees
	OpTransfer // A = transfer desc (offload_transfer pragma)
	OpWait     // A = wait tag index (offload_wait pragma)

	// References.
	OpRefL      // push r[A]; nil -> "nil pointer %s" (B = RefL desc)
	OpRefG      // push global array Globals[A] (device-aware); B = pos index
	OpRefNull   // push nil (NULL literal)
	OpRefStoreL // r[A] = popRef
	OpRefStoreG // rebind global pointer Globals[A] = popRef
	OpDevChk    // throw when on-device (global pointer rebind check); A = global, B = pos
	OpMalloc    // pop byte count, push fresh array (Mallocs[A])
	OpNewArr    // pop length, allocate local array into its ref slot (NewArrs[A])

	// Array element access (pop index, popRef array).
	OpLoadIdx  // push element (Accesses[A])
	OpStoreIdx // pop index, popRef array, pop value, store (Accesses[A])

	// Calls.
	OpCall    // A = func index, B = nNum<<12 | nRef
	OpBuiltin // A = builtin kind
	OpPrintf  // A = printf desc; pop len(Kinds) args, write, push 0

	// Returns.
	OpSetRet // retVal = pop
	OpRet    // unwind regions opened in this frame, leave the function

	// Fused superinstructions. The peephole pass rewrites the baseline
	// encoding into these after jump patching; the front end never emits
	// them directly. Each is exactly equivalent to its source pair.
	OpCmpJmp    // pop b, pop a; B = cmp<<1|sense; jump to A when (a CMP b) == sense
	OpLoad2     // push f[A]; push f[B]
	OpLoadIdxL  // OpLoad B; OpLoadIdx A with the index taken from slot B
	OpAddL      // st[top] += f[A]
	OpSubL      // st[top] -= f[A]
	OpMulL      // st[top] *= f[A]
	OpDivL      // st[top] /= f[A]
	OpAddC      // st[top] += Consts[A]
	OpSubC      // st[top] -= Consts[A]
	OpMulC      // st[top] *= Consts[A]
	OpDivC      // st[top] /= Consts[A]
	OpAddG      // st[top] += global A (device-aware read)
	OpSubG      // st[top] -= global A
	OpMulG      // st[top] *= global A
	OpDivG      // st[top] /= global A
	OpMove      // f[B] = f[A]
	OpMoveT     // f[B] = trunc(f[A])
	OpAddLC     // push f[A] + Consts[B]
	OpSubLC     // push f[A] - Consts[B]
	OpMulLC     // push f[A] * Consts[B]
	OpDivLC     // push f[A] / Consts[B]
	OpStoreIdxL // OpLoad B; OpStoreIdx A fused: index from slot B
	// Whole-site global element access: the array is resolved from
	// Accesses[A].GIdx (device-aware, erring at Accesses[A].RefPos — the
	// absorbed OpRefG's exact fault position, recorded at fusion time) and
	// the index comes from slot B.
	OpLoadIdxG
	OpStoreIdxG
	// Compare-and-branch with an inline second operand: B packs
	// idx<<4 | cmp<<1 | sense, where idx names a constant (C) or a global
	// (G). Pops one value.
	OpCmpJmpC
	OpCmpJmpG
	OpConstSt   // f[B] = Consts[A]
	OpConst2    // push Consts[A]; push Consts[B]
	OpLoadC     // push f[A]; push Consts[B]
	OpNegL      // push -f[A]
	OpBuiltinL  // push builtin A (1-arg kinds only) applied to f[B]
	OpAddLL     // push f[A] + f[B]
	OpSubLL     // push f[A] - f[B]
	OpMulLL     // push f[A] * f[B]
	OpDivLL     // push f[A] / f[B]
	OpRetV      // retVal = pop; unwind regions and return
	OpRetL      // retVal = f[A]; unwind regions and return
	OpIncJmp    // loop latch: f[B>>16] += (B&0xffff)-incBias; ip = A
	OpBuiltin2L // push 2-arg builtin A applied to (f[B>>16], f[B&0xffff])

	// Columnar tier. OpVecLoop sits immediately before a qualifying for
	// loop's head and executes VecLoops[A] — a fused element-wise kernel —
	// in blocked columnar batches, then falls through to the unchanged
	// scalar head, which performs the final (failing) condition check and
	// handles ragged tails, faults, and budget exhaustion natively. When
	// the columnar tier is disabled (or the loop cannot engage at runtime)
	// the op is a no-op and the scalar loop runs as before.
	OpVecLoop

	opCount // sentinel
)

// incBias zig-zag-encodes OpIncJmp's step into the low 16 bits of B.
const incBias = 1 << 15

// Comparison kinds carried in OpCmpJmp's B operand (bits 1..3); bit 0 is
// the jump sense (1 = jump when the comparison holds, from OpJnz; 0 = jump
// when it fails, from OpJz).
const (
	cmpEq = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
	cmpCount
)

var opNames = [...]string{
	OpNop: "Nop", OpConst: "Const", OpLoad: "Load", OpStore: "Store",
	OpStoreT: "StoreT", OpZero: "Zero", OpInc: "Inc",
	OpLoadG: "LoadG", OpStoreG: "StoreG",
	OpAdd: "Add", OpSub: "Sub", OpMul: "Mul", OpDivF: "DivF",
	OpDivI: "DivI", OpMod: "Mod", OpShl: "Shl", OpShr: "Shr",
	OpEq: "Eq", OpNe: "Ne", OpLt: "Lt", OpLe: "Le", OpGt: "Gt", OpGe: "Ge",
	OpAndE: "AndE", OpOrE: "OrE",
	OpNeg: "Neg", OpNot: "Not", OpBool: "Bool", OpTrunc: "Trunc",
	OpJmp: "Jmp", OpJz: "Jz", OpJnz: "Jnz", OpPop: "Pop",
	OpSwap: "Swap", OpChkZ: "ChkZ",
	OpWork:   "Work",
	OpGuardW: "GuardW", OpGuardF: "GuardF", OpGuardPar: "GuardPar",
	OpIterTick: "IterTick",
	OpParEnter: "ParEnter", OpParExit: "ParExit",
	OpOffEnter: "OffEnter", OpOffExit: "OffExit",
	OpTransfer: "Transfer", OpWait: "Wait",
	OpRefL: "RefL", OpRefG: "RefG", OpRefNull: "RefNull",
	OpRefStoreL: "RefStoreL", OpRefStoreG: "RefStoreG", OpDevChk: "DevChk",
	OpMalloc: "Malloc", OpNewArr: "NewArr",
	OpLoadIdx: "LoadIdx", OpStoreIdx: "StoreIdx",
	OpCall: "Call", OpBuiltin: "Builtin", OpPrintf: "Printf",
	OpSetRet: "SetRet", OpRet: "Ret",
	OpCmpJmp: "CmpJmp", OpLoad2: "Load2", OpLoadIdxL: "LoadIdxL",
	OpAddL: "AddL", OpSubL: "SubL", OpMulL: "MulL", OpDivL: "DivL",
	OpAddC: "AddC", OpSubC: "SubC", OpMulC: "MulC", OpDivC: "DivC",
	OpAddG: "AddG", OpSubG: "SubG", OpMulG: "MulG", OpDivG: "DivG",
	OpMove: "Move", OpMoveT: "MoveT",
	OpAddLC: "AddLC", OpSubLC: "SubLC", OpMulLC: "MulLC", OpDivLC: "DivLC",
	OpStoreIdxL: "StoreIdxL", OpLoadIdxG: "LoadIdxG", OpStoreIdxG: "StoreIdxG",
	OpCmpJmpC: "CmpJmpC", OpCmpJmpG: "CmpJmpG",
	OpConstSt: "ConstSt", OpConst2: "Const2", OpLoadC: "LoadC",
	OpNegL: "NegL", OpBuiltinL: "BuiltinL",
	OpAddLL: "AddLL", OpSubLL: "SubLL", OpMulLL: "MulLL", OpDivLL: "DivLL",
	OpRetV: "RetV", OpRetL: "RetL", OpIncJmp: "IncJmp",
	OpBuiltin2L: "Builtin2L", OpVecLoop: "VecLoop",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "Op?"
}

// Instr is one fixed-width bytecode instruction (12 bytes). W rides in
// the padding after Op: on a branch (see isBranch) it is 1 + the
// Works index the branch charges to the current bucket before it
// branches, and 0 means no charge. Every other opcode carries W = 0.
type Instr struct {
	Op   Op
	W    uint16
	A, B int32
}

// isBranch reports whether op jumps to the instruction index in A. These
// are the only ops that may carry a folded block charge in Instr.W.
func isBranch(op Op) bool {
	switch op {
	case OpJmp, OpJz, OpJnz, OpCmpJmp, OpCmpJmpC, OpCmpJmpG, OpIncJmp:
		return true
	}
	return false
}

// WorkTriple is one statically computed cost charge (flops, bytes,
// irregular bytes), matching the tree-walker's per-statement addWork.
type WorkTriple struct {
	W, B, Irr float64
}

// ParamSlot maps one declared parameter to its frame slot.
type ParamSlot struct {
	Slot  int
	IsRef bool
}

// Access describes one array element access site. Sites are unique per
// instruction, so the peephole pass may specialize an entry in place.
type Access struct {
	FieldOff int32 // field slot for member access, -1 for plain subscripts
	IsGlobal bool  // base is a global (device-touch tracked inside kernels)
	GIdx     int32 // global index of the base when IsGlobal, else -1
	Pos      int32 // position index for bounds errors
	// RefPos is the position index the absorbed OpRefG reported
	// missing-storage faults at; initialized to Pos and overwritten when the
	// peephole pass fuses the site into OpLoadIdxG/OpStoreIdxG.
	RefPos int32
}

// MallocDesc describes one malloc/offload_shared_malloc site.
type MallocDesc struct {
	Elem   minic.Type
	Shared bool
	Pos    int32
}

// NewArrDesc describes one local array declaration.
type NewArrDesc struct {
	Name string
	Elem minic.Type
	Slot int32 // destination ref slot
	Pos  int32
}

// RefLDesc names a local pointer read site for nil-pointer errors.
type RefLDesc struct {
	Name string
	Pos  int32
}

// PrintfDesc is a pre-translated printf site: Format already carries the
// rewritten verbs; Kinds records, per consumed argument, 'i' (render as
// int64) or 'f' (render as float64). Arguments past len(Kinds) are never
// evaluated, matching the tree-walker.
type PrintfDesc struct {
	Format string
	Kinds  []byte
}

// ParDesc describes one omp parallel-for region.
type ParDesc struct {
	Vec bool // statically vectorizable (analysis.Vectorizable)
}

// VSpec is a compiled transfer item. The optional expressions are
// mini-blocks of bytecode sharing the enclosing function's frame; the
// offload handlers evaluate them on demand (and, like the tree-walker,
// more than once).
type VSpec struct {
	// Item keeps the clause's names only; its section expressions are
	// compiled into the mini-blocks below.
	Item      minic.TransferItem
	Dir       interp.Direction
	Scalar    bool
	ElemBytes int64

	Start, Length, IntoStart, AllocIf, FreeIf []Instr

	HostName, DevName string
	// Layout slots of the named globals (-1 when the name is not a
	// global; the runtime checks mirror the tree-walker's lookups).
	HostG, DevG int32

	DefAlloc, DefFree bool
}

// OffloadDesc describes one offload region. Pragma identifies the site to
// the backend; it carries no transfer clauses (see site).
type OffloadDesc struct {
	Pragma *minic.Pragma
	Specs  []*VSpec
	Pos    minic.Pos
	Chunk  *Chunk // owning chunk, for spec evaluation context
}

// TransferDesc describes one offload_transfer pragma.
type TransferDesc struct {
	Pragma *minic.Pragma
	Specs  []*VSpec
	Pos    minic.Pos
	Chunk  *Chunk
}

// Builtin kinds for OpBuiltin.
const (
	bSqrt = iota
	bExp
	bLog
	bPow
	bFabs
	bFloor
	bCeil
	bFmin
	bFmax
)

var builtinArity = [...]int{
	bSqrt: 1, bExp: 1, bLog: 1, bPow: 2, bFabs: 1,
	bFloor: 1, bCeil: 1, bFmin: 2, bFmax: 2,
}

var builtinKind = map[string]int{
	"sqrt": bSqrt, "exp": bExp, "log": bLog, "pow": bPow, "fabs": bFabs,
	"floor": bFloor, "ceil": bCeil, "fmin": bFmin, "fmax": bFmax,
}

// Chunk is one compiled function: code, constant pool, cost table, and the
// descriptor tables its instructions index into.
type Chunk struct {
	Name     string
	NumSlots int // numeric frame slots (includes hidden loop-guard slots)
	RefSlots int
	Params   []ParamSlot
	// MaxF/MaxR bound the operand stack growth of one activation, computed
	// by abstract interpretation over the CFG at compile time.
	MaxF, MaxR int

	Code   []Instr
	Consts []float64
	Works  []WorkTriple

	Positions []minic.Pos
	Accesses  []Access
	Mallocs   []MallocDesc
	NewArrs   []NewArrDesc
	RefLs     []RefLDesc
	Printfs   []*PrintfDesc
	Pars      []ParDesc
	Offloads  []*OffloadDesc
	Transfers []*TransferDesc
	Waits     []string
	VecLoops  []*VecLoopDesc
}

// GlobalRef names one global the bytecode references and its slot in the
// module's Layout; each run resolves it against the executing Program.
type GlobalRef struct {
	Name string
	Slot int32
}

// Module is a whole compiled program: one chunk per function plus the
// global table. It holds no program state, so one read-only Module runs
// any number of Programs that share its Layout — the program it was
// compiled from, or instances made with interp.NewInstance — sequentially
// or concurrently.
type Module struct {
	Layout  *interp.Layout
	Funcs   []*Chunk
	ByName  map[string]int
	Globals []GlobalRef
	Main    int
}

// maxLoopIters and maxCallDepth mirror internal/interp's runaway guards.
const (
	maxLoopIters = 1 << 33
	maxCallDepth = 10000
)
