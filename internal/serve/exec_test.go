package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
)

// leakSource reads the state it writes: out accumulates and acc counts
// runs, so any state one request left behind shows in the next one's
// outputs. A Setup that sets n past 64 makes it fault after it has
// written host arrays and device buffers.
const leakSource = `
float a[64];
float out[64];
float acc;
int n;
int main(void) {
    int i;
    acc = acc + 1.0;
    for (i = 0; i < 64; i++) {
        out[i] = out[i] + a[i] * 2.0 + acc;
    }
    #pragma offload target(mic:0) in(a : length(64)) inout(out : length(64))
    #pragma omp parallel for
    for (i = 0; i < 64; i++) {
        out[i] = out[i] + sqrt(a[i] + 1.0);
    }
    for (i = 0; i < n; i++) {
        a[i] = out[i] * 0.5;
    }
    out[0] = out[0] + acc;
    return 0;
}
`

var leakOutputs = []string{"out", "a"}

// leakInputs is a per-request Setup override for leakSource.
func leakInputs(seed int64, n float64) func(*interp.Program) error {
	return func(p *interp.Program) error {
		data := make([]float64, 64)
		for i := range data {
			data[i] = float64(seed) + float64(i)*0.125
		}
		if err := p.SetArray("a", data); err != nil {
			return err
		}
		return p.SetScalar("n", n)
	}
}

// planOf returns the cached plan with the given key.
func planOf(t *testing.T, pl *Planner, key string) *Plan {
	t.Helper()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	e := pl.plans[key]
	if e == nil || e.plan == nil {
		t.Fatalf("no plan %q", key)
	}
	return e.plan
}

// freshRun answers a request the way a standalone run does: a fresh
// tree-walker compile of the plan's source, the request's setup, and its
// outputs. Every response is held to it.
func freshRun(t *testing.T, plan *Plan, job Job) (map[string][]float64, error) {
	t.Helper()
	p, err := interp.CompileWith(plan.Source, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	setup := job.Setup
	if setup == nil {
		setup = plan.setup
	}
	if setup != nil {
		if err := setup(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Run(interp.NullBackend{}); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for _, name := range plan.Outputs {
		data, err := p.ArrayData(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = data
	}
	return out, nil
}

// countCompiles installs the compile hook on pl and returns the counts by
// "key mode".
func countCompiles(pl *Planner) func() map[string]int {
	var mu sync.Mutex
	counts := map[string]int{}
	pl.testCompiled = func(key, mode string) {
		mu.Lock()
		counts[key+" "+mode]++
		mu.Unlock()
	}
	return func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		out := map[string]int{}
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
}

// TestServeCompilesOncePerPlanAndMode spreads requests for a registry
// workload and an inline source over several batches on two fleet devices
// sharing one Planner, on the VM. Each plan compiles exactly once — the
// inline plan's validation compile is the one — and every response,
// per-request Setup overrides included, matches a fresh compile bit for
// bit.
func TestServeCompilesOncePerPlanAndMode(t *testing.T) {
	pl := NewPlanner()
	compiles := countCompiles(pl)
	jobs := []Job{
		{Key: "leak", Source: leakSource, Outputs: leakOutputs},
		{Key: "leak", Source: leakSource, Outputs: leakOutputs, Setup: leakInputs(3, 64)},
		{Workload: "nn"},
		{Key: "leak", Source: leakSource, Outputs: leakOutputs, Setup: leakInputs(7, 10)},
	}
	var devs [2]*Server
	for d := range devs {
		s, err := New(Config{Streams: 2, QueueDepth: 16, MaxBatch: 3, Stepped: true, Planner: pl, Exec: vm.ExecVM})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		devs[d] = s
	}
	var tickets []*Ticket
	for i := 0; i < 16; i++ {
		tk, err := devs[i%2].Enqueue(jobs[i%len(jobs)])
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		if i%5 == 4 {
			devs[0].StepBatch()
			devs[1].StepBatch()
		}
	}
	for _, s := range devs {
		for s.StepBatch() > 0 {
		}
		if rep := s.Report(); rep.Batches < 3 {
			t.Fatalf("%d batches; the test needs requests spread over several", rep.Batches)
		}
	}
	var keys []string
	seen := map[string]bool{}
	for i, tk := range tickets {
		resp, err := tk.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, err := freshRun(t, planOf(t, pl, resp.PlanKey), jobs[i%len(jobs)])
		if err != nil {
			t.Fatalf("request %d: fresh run: %v", i, err)
		}
		if !outputsEqual(resp.Outputs, want) {
			t.Fatalf("request %d (%s): outputs differ from a fresh compile", i, resp.PlanKey)
		}
		if !seen[resp.PlanKey] {
			keys = append(keys, resp.PlanKey)
		}
		seen[resp.PlanKey] = true
	}
	got := compiles()
	for _, key := range keys {
		if n := got[key+" "+vm.ExecVM]; n != 1 {
			t.Errorf("plan %s compiled %d times, want once", key, n)
		}
	}
	if len(keys) != 2 || len(got) != len(keys) {
		t.Errorf("compiles %v over plans %v: want exactly one per plan", got, keys)
	}
}

// TestServeFaultedRequestLeavesNoState runs a request that faults
// mid-run, after writing host arrays and device buffers, then clean
// requests on the same plan: the fault matches a fresh compile's, and the
// next requests see none of its state.
func TestServeFaultedRequestLeavesNoState(t *testing.T) {
	pl := NewPlanner()
	compiles := countCompiles(pl)
	s, err := New(Config{Streams: 2, Stepped: true, Planner: pl, Exec: vm.ExecVM})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job := Job{Key: "leak", Source: leakSource, Outputs: leakOutputs}
	serveOne := func(setup func(*interp.Program) error) (Job, Response, error) {
		j := job
		j.Setup = setup
		tk, err := s.Enqueue(j)
		if err != nil {
			t.Fatal(err)
		}
		s.StepBatch()
		resp, err := tk.Wait()
		return j, resp, err
	}
	key, err := cacheKey(job, s.rtCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for i, setup := range []func(*interp.Program) error{
		nil, leakInputs(5, 100), leakInputs(5, 64), nil, leakInputs(5, 100), leakInputs(9, 32),
	} {
		j, resp, err := serveOne(setup)
		want, wantErr := freshRun(t, planOf(t, pl, key), j)
		if wantErr != nil {
			var got, fresh *interp.RuntimeError
			if !errors.As(err, &got) || !errors.As(wantErr, &fresh) || *got != *fresh {
				t.Fatalf("request %d: error %v, fresh compile %v", i, err, wantErr)
			}
			faults++
			continue
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !outputsEqual(resp.Outputs, want) {
			t.Fatalf("request %d: outputs differ from a fresh compile", i)
		}
	}
	if faults != 2 {
		t.Fatalf("%d requests faulted, want 2", faults)
	}
	if got := compiles(); len(got) != 1 || got[key+" "+vm.ExecVM] != 1 {
		t.Fatalf("compiles %v, want the plan's one", got)
	}
}

// TestServeExecModeFollowsProcessDefault switches the process default
// engine between requests on one server with Config.Exec empty: each
// request runs on the engine a fresh compile would pick — the plan's
// shared module for "vm", a per-request tree-walker compile for "interp".
func TestServeExecModeFollowsProcessDefault(t *testing.T) {
	prev := vm.ExecMode()
	defer vm.SetExecMode(prev)
	pl := NewPlanner()
	var compiled []string
	pl.testCompiled = func(_, mode string) { compiled = append(compiled, mode) }
	s, err := New(Config{Streams: 2, Stepped: true, Planner: pl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var ran *interp.Program
	job := Job{Key: "leak", Source: leakSource, Outputs: leakOutputs, Setup: func(p *interp.Program) error {
		ran = p
		return leakInputs(2, 64)(p)
	}}
	key, err := cacheKey(job, s.rtCfg, false)
	if err != nil {
		t.Fatal(err)
	}
	for i, mode := range []string{vm.ExecVM, vm.ExecInterp, vm.ExecVM, vm.ExecInterp} {
		if err := vm.SetExecMode(mode); err != nil {
			t.Fatal(err)
		}
		tk, err := s.Enqueue(job)
		if err != nil {
			t.Fatal(err)
		}
		s.StepBatch()
		resp, err := tk.Wait()
		if err != nil {
			t.Fatalf("request %d (%s): %v", i, mode, err)
		}
		plan := planOf(t, pl, key)
		if mode == vm.ExecInterp {
			if ran.Engine() != nil || ran.File() == nil {
				t.Fatalf("request %d: ran on %T, want a fresh tree-walker compile", i, ran.Engine())
			}
		} else if x := pl.executable(plan); ran.Engine() != x.engine || ran.File() != nil {
			t.Fatalf("request %d: did not run on the plan's module", i)
		}
		want, err := freshRun(t, plan, job)
		if err != nil {
			t.Fatal(err)
		}
		if !outputsEqual(resp.Outputs, want) {
			t.Fatalf("request %d (%s): outputs differ from a fresh compile", i, mode)
		}
	}
	if want := fmt.Sprint([]string{vm.ExecVM, vm.ExecInterp, vm.ExecInterp}); fmt.Sprint(compiled) != want {
		t.Fatalf("compiles by mode %v, want %s", compiled, want)
	}
}
