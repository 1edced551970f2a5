package scenario

import (
	"testing"

	"comp/internal/interp"
	"comp/internal/runtime"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// treeWalk runs one mix entry's program once, fault-free, on the
// tree-walker and returns its output arrays: the reference every served
// request of that entry must reproduce.
func treeWalk(t *testing.T, m MixEntry) map[string][]float64 {
	t.Helper()
	var (
		src     string
		outputs []string
		setup   func(*interp.Program) error
	)
	switch {
	case m.Workload != "" && !m.ExpectError:
		b, err := workloads.Get(m.Workload)
		if err != nil {
			t.Fatal(err)
		}
		src, outputs, setup = b.Source, b.Outputs, b.Setup
	case m.Synth > 0:
		src, outputs = synthSource(m.Synth), []string{"out"}
	default:
		t.Fatalf("%s request completed", mixKind(m))
	}
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Apply(p, vm.ExecInterp); err != nil {
		t.Fatal(err)
	}
	cfg := runtime.DefaultConfig()
	cfg.DisableTrace = true
	if _, err := runtime.RunWithSetup(p, cfg, setup); err != nil {
		t.Fatalf("%s: tree-walker reference: %v", mixKind(m), err)
	}
	outs := make(map[string][]float64, len(outputs))
	for _, name := range outputs {
		data, err := p.ArrayData(name)
		if err != nil {
			t.Fatal(err)
		}
		outs[name] = append([]float64(nil), data...)
	}
	return outs
}

// TestServedOutputsMatchTreeWalker holds every completed request of four
// built-ins, served on the VM under their fault storms, unplug windows and
// queue squeezes, to one fault-free tree-walker run of its mix entry:
// batching, queueing, faults, recovery and the engine shift timing, never
// values.
func TestServedOutputsMatchTreeWalker(t *testing.T) {
	for _, name := range []string{"steady", "fault-storm", "hot-unplug", "mixed-chaos"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Server.Exec = vm.ExecVM
			res, err := Replay(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			refs := map[int]map[string][]float64{}
			compared := 0
			for _, out := range res.Outcomes {
				if !out.Completed() {
					continue
				}
				ref, ok := refs[out.Mix]
				if !ok {
					ref = treeWalk(t, sc.Mix[out.Mix])
					refs[out.Mix] = ref
				}
				if len(out.Outputs) != len(ref) {
					t.Fatalf("request %d: %d output arrays, reference has %d", out.ID, len(out.Outputs), len(ref))
				}
				for arr, want := range ref {
					got := out.Outputs[arr]
					if len(got) != len(want) {
						t.Fatalf("request %d output %s: length %d, reference %d", out.ID, arr, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("request %d output %s[%d]: served %v, tree-walker %v", out.ID, arr, i, got[i], want[i])
						}
					}
				}
				compared++
			}
			if compared == 0 {
				t.Fatal("no completed requests to compare")
			}
			t.Logf("%d completed requests match the tree-walker over %d mix entries", compared, len(refs))
		})
	}
}
