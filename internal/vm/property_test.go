package vm_test

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"comp/internal/interp"
	"comp/internal/vm"
)

// compileModule compiles a generated source all the way to bytecode.
func compileModule(t *testing.T, src string) *vm.Module {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	eng, err := vm.NewEngine(p)
	if err != nil {
		t.Fatalf("vm compile: %v\nsource:\n%s", err, src)
	}
	return eng.Module()
}

// TestPropertyChunksVerify: every chunk the compiler emits passes the
// structural verifier — jump targets within [0, len], constant-pool and
// work-table indices in bounds, local and ref slots in bounds, and operand
// stack depths consistent and non-negative on every path.
func TestPropertyChunksVerify(t *testing.T) {
	prop := func(seed int64) bool {
		mod := compileModule(t, genProgram(seed))
		for _, ch := range mod.Funcs {
			if err := vm.VerifyChunk(ch, len(mod.Globals), len(mod.Funcs)); err != nil {
				t.Logf("seed %d chunk %s: %v", seed, ch.Name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDisasmRoundTrip: disassembling a chunk and reassembling the
// text reproduces the chunk's serializable projection exactly, and a
// second disassembly reproduces the text byte for byte.
func TestPropertyDisasmRoundTrip(t *testing.T) {
	prop := func(seed int64) bool {
		mod := compileModule(t, genProgram(seed))
		for _, ch := range mod.Funcs {
			text := vm.Disassemble(ch)
			back, err := vm.Assemble(text)
			if err != nil {
				t.Logf("seed %d chunk %s: assemble: %v", seed, ch.Name, err)
				return false
			}
			if got := vm.Disassemble(back); got != text {
				t.Logf("seed %d chunk %s: second disassembly differs", seed, ch.Name)
				return false
			}
			if back.Name != ch.Name || back.NumSlots != ch.NumSlots ||
				back.RefSlots != ch.RefSlots || back.MaxF != ch.MaxF || back.MaxR != ch.MaxR {
				t.Logf("seed %d chunk %s: header fields differ", seed, ch.Name)
				return false
			}
			if !reflect.DeepEqual(back.Params, ch.Params) && !(len(back.Params) == 0 && len(ch.Params) == 0) {
				t.Logf("seed %d chunk %s: params differ", seed, ch.Name)
				return false
			}
			if !reflect.DeepEqual(back.Code, ch.Code) {
				t.Logf("seed %d chunk %s: code differs", seed, ch.Name)
				return false
			}
			if !reflect.DeepEqual(back.VecLoops, ch.VecLoops) && !(len(back.VecLoops) == 0 && len(ch.VecLoops) == 0) {
				t.Logf("seed %d chunk %s: vector-loop descriptors differ", seed, ch.Name)
				return false
			}
			if len(back.Consts) != len(ch.Consts) || len(back.Works) != len(ch.Works) {
				t.Logf("seed %d chunk %s: pool sizes differ", seed, ch.Name)
				return false
			}
			for i := range ch.Consts {
				if math.Float64bits(back.Consts[i]) != math.Float64bits(ch.Consts[i]) {
					t.Logf("seed %d chunk %s: const %d differs", seed, ch.Name, i)
					return false
				}
			}
			for i := range ch.Works {
				a, b := ch.Works[i], back.Works[i]
				if math.Float64bits(a.W) != math.Float64bits(b.W) ||
					math.Float64bits(a.B) != math.Float64bits(b.B) ||
					math.Float64bits(a.Irr) != math.Float64bits(b.Irr) {
					t.Logf("seed %d chunk %s: work %d differs", seed, ch.Name, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestVerifierRejectsCorruption: the verifier is not vacuous — corrupting
// a compiled chunk trips it.
func TestVerifierRejectsCorruption(t *testing.T) {
	mod := compileModule(t, genProgram(1))
	ch := mod.Funcs[mod.Main]

	corrupt := func(mut func(c *vm.Chunk)) error {
		cp := *ch
		cp.Code = append([]vm.Instr(nil), ch.Code...)
		mut(&cp)
		return vm.VerifyChunk(&cp, len(mod.Globals), len(mod.Funcs))
	}

	if err := corrupt(func(c *vm.Chunk) {
		c.Code[0] = vm.Instr{Op: vm.OpJmp, A: int32(len(c.Code) + 5)}
	}); err == nil {
		t.Error("out-of-range jump target not rejected")
	}
	if err := corrupt(func(c *vm.Chunk) {
		c.Code[0] = vm.Instr{Op: vm.OpConst, A: int32(len(c.Consts) + 3)}
	}); err == nil {
		t.Error("out-of-range constant index not rejected")
	}
	if err := corrupt(func(c *vm.Chunk) {
		c.Code[0] = vm.Instr{Op: vm.OpStore, A: 0}
	}); err == nil {
		t.Error("stack underflow not rejected")
	}
	if err := corrupt(func(c *vm.Chunk) {
		c.Code[0] = vm.Instr{Op: vm.OpLoad, A: int32(c.NumSlots)}
	}); err == nil {
		t.Error("out-of-range local slot not rejected")
	}

	// Folded charges: W belongs on branches only, and names a Works entry.
	branch, other := -1, -1
	for i, in := range ch.Code {
		if isBranchOp(in.Op) && branch < 0 {
			branch = i
		} else if !isBranchOp(in.Op) && other < 0 {
			other = i
		}
	}
	if branch < 0 || other < 0 || len(ch.Works) == 0 {
		t.Fatalf("chunk lacks a branch, a non-branch or a work entry:\n%s", vm.Disassemble(ch))
	}
	if err := corrupt(func(c *vm.Chunk) {
		c.Code[other].W = 1
	}); err == nil {
		t.Errorf("charge on non-branch %s not rejected", ch.Code[other].Op)
	}
	if err := corrupt(func(c *vm.Chunk) {
		c.Code[branch].W = uint16(len(c.Works) + 1)
	}); err == nil {
		t.Error("out-of-range branch charge not rejected")
	}
	if err := corrupt(func(c *vm.Chunk) {
		c.Code[branch].W = uint16(len(c.Works))
	}); err != nil {
		t.Errorf("in-range branch charge rejected: %v", err)
	}
}
