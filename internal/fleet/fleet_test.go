package fleet

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/fault"
)

// synthSource builds a small offload program whose outputs depend on the
// scale constant, so distinct keys provably serve distinct plans. It is
// deliberately tiny — fleet tests replay thousands of them.
func synthSource(scale int) string {
	return fmt.Sprintf(`
float a[1024];
float out[1024];
int n;
int main(void) {
    int i;
    n = 1024;
    for (i = 0; i < n; i++) {
        a[i] = i * 0.25 + 1.0;
    }
    #pragma offload target(mic:0) in(a : length(n)) out(out : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        out[i] = sqrt(a[i] * %d.0) + a[i] * 0.125;
    }
    return 0;
}
`, scale)
}

func synthJob(scale int) serve.Job {
	return serve.Job{
		Key:     fmt.Sprintf("fleet-synth-%d", scale),
		Source:  synthSource(scale),
		Outputs: []string{"out"},
	}
}

// steppedFleet builds a 2×2 heterogeneous stepped fleet on a virtual clock.
func steppedFleet(t *testing.T, queue, steal int) *Fleet {
	t.Helper()
	epoch := time.Unix(0, 0).UTC()
	f, err := New(Config{
		Devices:        DefaultDevices(2, 2, queue),
		StealThreshold: steal,
		Stepped:        true,
		Clock:          func() time.Time { return epoch },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := New(Config{Devices: []DeviceConfig{{ID: ""}}}); err == nil {
		t.Error("empty device ID accepted")
	}
	if _, err := New(Config{Devices: []DeviceConfig{{ID: "d"}, {ID: "d"}}}); err == nil {
		t.Error("duplicate device ID accepted")
	}
	bad := runtime.DefaultConfig()
	bad.MICThreads = -1
	if _, err := New(Config{Devices: []DeviceConfig{{ID: "d", Runtime: &bad}}}); err == nil {
		t.Error("invalid device platform accepted")
	}
}

// The fleet serves end to end: jobs complete with outputs, placements are
// consistent-hash stable, and the rollup accounts for every submission.
func TestFleetServesAndAccounts(t *testing.T) {
	f, err := New(Config{Devices: DefaultDevices(2, 2, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const n = 12
	var owners []string
	for i := 0; i < n; i++ {
		resp, err := f.Do(synthJob(i % 3))
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if len(resp.Outputs["out"]) != 1024 {
			t.Fatalf("job %d: outputs missing", i)
		}
		if resp.Device == "" || resp.Owner == "" {
			t.Fatalf("job %d: placement not recorded: %+v", i, resp.Placement)
		}
		owners = append(owners, resp.Owner)
	}
	// Same key → same ring owner, every time.
	for i := 3; i < n; i++ {
		if owners[i] != owners[i-3] {
			t.Fatalf("key %d owner flapped: %s vs %s", i%3, owners[i], owners[i-3])
		}
	}
	// Invalid jobs are typed, not dropped.
	if _, err := f.Do(serve.Job{}); !errors.Is(err, serve.ErrInvalidJob) {
		t.Fatalf("invalid job: %v", err)
	}
	rep := f.Report()
	if rep.Routed != n+1 {
		t.Fatalf("routed %d, want %d", rep.Routed, n+1)
	}
	if rep.Aggregate.Completed != n || rep.Aggregate.Invalid != 1 {
		t.Fatalf("aggregate: %+v", rep.Aggregate)
	}
	var perDevice int64
	for _, d := range rep.Devices {
		perDevice += d.Submitted
	}
	if perDevice != rep.Routed {
		t.Fatalf("per-device submissions %d != routed %d", perDevice, rep.Routed)
	}
	if rep.MakespanNs <= 0 || rep.TotalSimNs < rep.MakespanNs {
		t.Fatalf("makespan rollup: makespan %d, total %d", rep.MakespanNs, rep.TotalSimNs)
	}
	// The shared registry planned each (key, signature) pair at most once.
	if rep.Aggregate.PlanMisses > 6 { // 3 keys × ≤2 signatures
		t.Fatalf("plan misses %d; registry not shared", rep.Aggregate.PlanMisses)
	}
}

// Work stealing: once the primary's queue passes the threshold, requests
// for its keys go to the least-loaded device of the same signature — and
// only the same signature, while the primary is healthy.
func TestStealingKeepsPlanAffinity(t *testing.T) {
	f := steppedFleet(t, 32, 3)
	defer f.Close()

	job := synthJob(1)
	pl, err := f.RouteFor(job.Key)
	if err != nil {
		t.Fatal(err)
	}
	owner := pl.Device
	ownerSig, err := f.Signature(owner)
	if err != nil {
		t.Fatal(err)
	}

	var stole bool
	for i := 0; i < 12; i++ {
		pl, _, err := f.Enqueue(job)
		if err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if pl.Owner != owner {
			t.Fatalf("enqueue %d: ring owner flapped to %s", i, pl.Owner)
		}
		sig, err := f.Signature(pl.Device)
		if err != nil {
			t.Fatal(err)
		}
		if sig != ownerSig {
			t.Fatalf("enqueue %d: stolen to %s with signature %s (owner %s has %s): plan affinity violated",
				i, pl.Device, sig, owner, ownerSig)
		}
		if pl.Stolen {
			if pl.Device == owner {
				t.Fatalf("enqueue %d: marked stolen but placed on the owner", i)
			}
			stole = true
		}
	}
	if !stole {
		t.Fatal("queue pressure never triggered a steal")
	}
	if rep := f.Report(); rep.Stolen == 0 {
		t.Fatal("report did not count the steals")
	}
	for f.StepAll() > 0 {
	}
}

// Negative StealThreshold disables stealing: every placement stays on the
// ring owner no matter the depth.
func TestStealingDisabled(t *testing.T) {
	f := steppedFleet(t, 32, -1)
	defer f.Close()
	job := synthJob(2)
	for i := 0; i < 10; i++ {
		pl, _, err := f.Enqueue(job)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Device != pl.Owner || pl.Stolen {
			t.Fatalf("enqueue %d stole with stealing disabled: %+v", i, pl)
		}
	}
	for f.StepAll() > 0 {
	}
}

// Device loss: the lost device leaves the ring (its keys rebalance), its
// queued work drains to answers, and restore moves the keys back.
func TestDeviceLossDrainsAndRebalances(t *testing.T) {
	f := steppedFleet(t, 32, -1)
	defer f.Close()

	job := synthJob(3)
	pl, err := f.RouteFor(job.Key)
	if err != nil {
		t.Fatal(err)
	}
	owner := pl.Device

	// Queue two requests on the owner, then lose it.
	var tickets []*serve.Ticket
	for i := 0; i < 2; i++ {
		_, tk, err := f.Enqueue(job)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if err := f.FailDevice(owner); err != nil {
		t.Fatal(err)
	}
	if err := f.FailDevice(owner); err == nil {
		t.Error("double loss accepted")
	}
	if lost, _ := f.Lost(owner); !lost {
		t.Error("Lost() disagrees")
	}

	pl2, err := f.RouteFor(job.Key)
	if err != nil {
		t.Fatal(err)
	}
	if pl2.Device == owner {
		t.Fatalf("key still routed to lost device %s", owner)
	}
	if !pl2.Rerouted {
		t.Errorf("placement after loss not marked rerouted: %+v", pl2)
	}

	// Queued work on the lost device still drains to answers.
	for f.StepAll() > 0 {
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("queued request %d on lost device answered with %v", i, err)
		}
	}

	if err := f.RestoreDevice(owner); err != nil {
		t.Fatal(err)
	}
	if err := f.RestoreDevice(owner); err == nil {
		t.Error("double restore accepted")
	}
	pl3, err := f.RouteFor(job.Key)
	if err != nil {
		t.Fatal(err)
	}
	if pl3.Device != owner || pl3.Rerouted {
		t.Fatalf("restore did not move the key home: %+v", pl3)
	}

	rep := f.Report()
	if rep.LossEvents != 1 || rep.RestoreEvents != 1 {
		t.Fatalf("loss/restore accounting: %+v", rep)
	}
}

// With every device lost the router answers ErrNoDevices — a typed
// rejection, never a hang or a drop.
func TestNoHealthyDevices(t *testing.T) {
	f := steppedFleet(t, 8, 0)
	defer f.Close()
	for _, id := range f.Devices() {
		if err := f.FailDevice(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Do(synthJob(1)); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("got %v, want ErrNoDevices", err)
	}
	if _, err := f.RouteFor("any"); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("RouteFor: %v", err)
	}
	if rep := f.Report(); rep.NoDevice != 1 {
		t.Fatalf("NoDevice count %d, want 1", rep.NoDevice)
	}
}

func TestUnknownDeviceOps(t *testing.T) {
	f := steppedFleet(t, 8, 0)
	defer f.Close()
	if err := f.FailDevice("nope"); err == nil {
		t.Error("FailDevice(nope) succeeded")
	}
	if err := f.RestoreDevice("h0/d0"); err == nil {
		t.Error("restoring a healthy device succeeded")
	}
	if err := f.SetDeviceFaults("nope", fault.Config{}); err == nil {
		t.Error("SetDeviceFaults(nope) succeeded")
	}
	if err := f.SetDeviceFaults("h0/d0", fault.Config{DMARate: 2}); err == nil {
		t.Error("invalid fault schedule accepted")
	}
	if _, err := f.Signature("nope"); err == nil {
		t.Error("Signature(nope) succeeded")
	}
	if _, err := f.Lost("nope"); err == nil {
		t.Error("Lost(nope) succeeded")
	}
}

func TestStepAllPanicsWithoutStepped(t *testing.T) {
	f, err := New(Config{Devices: DefaultDevices(1, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer func() {
		if recover() == nil {
			t.Error("StepAll on a non-stepped fleet did not panic")
		}
	}()
	f.StepAll()
}

// smallTrace is a mixed trace: submissions over 4 keys, explicit steps, a
// mid-trace fault storm, a device loss, and a restore.
func smallTrace(f func(int) serve.Job, victim string) []Event {
	var ev []Event
	for i := 0; i < 10; i++ {
		ev = append(ev, Submit(f(i%4)))
	}
	ev = append(ev, Step(), Storm(victim, fault.Uniform(11, 0.4)), Fail(victim))
	for i := 10; i < 20; i++ {
		ev = append(ev, Submit(f(i%4)))
		if i%3 == 0 {
			ev = append(ev, Step())
		}
	}
	ev = append(ev, Restore(victim), Storm(victim, fault.Config{}))
	for i := 20; i < 26; i++ {
		ev = append(ev, Submit(f(i%4)))
	}
	return ev
}

// Replay is deterministic: Verify runs the trace twice against fresh
// fleets and demands bit-identical outcomes and reports — including under
// the loss/storm events.
func TestReplayVerifySmallTrace(t *testing.T) {
	cfg := Config{Devices: DefaultDevices(2, 2, 8), StealThreshold: 2}
	res, err := Verify(cfg, smallTrace(synthJob, "h0/d1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 26 {
		t.Fatalf("outcomes %d, want 26 (one per submission)", len(res.Outcomes))
	}
	completed := 0
	for _, o := range res.Outcomes {
		if o.Err == "" {
			completed++
			if len(o.Outputs) == 0 {
				t.Fatalf("outcome %d completed without outputs", o.Index)
			}
			if o.LatencyNs <= 0 {
				t.Fatalf("outcome %d has no virtual latency", o.Index)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no submissions completed")
	}
	if res.Report.LossEvents != 1 || res.Report.RestoreEvents != 1 {
		t.Fatalf("loss accounting in replay: %+v", res.Report)
	}
}

func TestReplayRejectsBadEvents(t *testing.T) {
	cfg := Config{Devices: DefaultDevices(1, 2, 8)}
	if _, err := Replay(cfg, []Event{Fail("ghost")}); err == nil {
		t.Error("replay accepted a loss event for an unknown device")
	}
	if _, err := Replay(cfg, []Event{{Op: Op(99)}}); err == nil {
		t.Error("replay accepted an unknown op")
	}
	if _, err := Verify(Config{Devices: DefaultDevices(1, 1, 4), Planner: serve.NewPlanner()}, nil); err == nil {
		t.Error("Verify accepted a shared planner across replays")
	}
	if _, err := Replay(cfg, []Event{{Op: OpAdmitLimit, Device: "ghost", Limit: 1}}); err == nil {
		t.Error("replay accepted an admit limit for an unknown device")
	}
	if _, err := Replay(cfg, []Event{{Op: OpStep, At: 5 * time.Millisecond}, {Op: OpStep, At: 4 * time.Millisecond}}); err == nil {
		t.Error("replay accepted an event that goes back in time")
	}
}

// TestReplayAdmitLimitAndTimes pins the two one-device trace controls:
// OpAdmitLimit sheds exactly the submissions past the limit, and Event.At
// sets the virtual clock that latencies are read from.
func TestReplayAdmitLimitAndTimes(t *testing.T) {
	const dev = "h0/d0"
	ms := time.Millisecond
	limit := func(n int, at time.Duration) Event { return Event{Op: OpAdmitLimit, Device: dev, Limit: n, At: at} }
	submit := func(at time.Duration) Event { return Event{Op: OpSubmit, Job: synthJob(1), At: at} }
	step := func(at time.Duration) Event { return Event{Op: OpStep, At: at} }
	for _, c := range []struct {
		name    string
		events  []Event
		shed    []int           // outcome indices answered ErrOverloaded
		latency []time.Duration // per outcome; 0 for shed ones
	}{
		{"limit 2 sheds the third and fourth",
			[]Event{limit(2, 0), submit(0), submit(0), submit(0), submit(0), step(0)},
			[]int{2, 3}, []time.Duration{4 * ms, 3 * ms, 0, 0}},
		{"limit 0 sheds everything",
			[]Event{limit(0, 0), submit(0), submit(0)},
			[]int{0, 1}, []time.Duration{0, 0}},
		{"negative limit restores the full queue",
			[]Event{limit(1, 0), submit(0), submit(0), limit(-1, 0), submit(0), step(0)},
			[]int{1}, []time.Duration{4 * ms, 0, 1 * ms}},
		{"a step on the queue answers at its time",
			[]Event{submit(3 * ms), submit(4 * ms), step(10 * ms)},
			nil, []time.Duration{7 * ms, 6 * ms}},
		{"zero At ticks after an explicit time",
			[]Event{submit(3 * ms), submit(0), step(0)},
			nil, []time.Duration{2 * ms, 1 * ms}},
		{"drain steps two ticks after the last event",
			[]Event{submit(5 * ms)},
			nil, []time.Duration{2 * ms}},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := Replay(Config{Devices: DefaultDevices(1, 1, 8)}, c.events)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outcomes) != len(c.latency) {
				t.Fatalf("%d outcomes, want %d", len(res.Outcomes), len(c.latency))
			}
			shed := map[int]bool{}
			for _, i := range c.shed {
				shed[i] = true
			}
			for i, o := range res.Outcomes {
				if shed[i] != errors.Is(o.Cause, serve.ErrOverloaded) {
					t.Errorf("outcome %d: err %q, want shed=%v", i, o.Err, shed[i])
				}
				if !shed[i] && o.Err != "" {
					t.Errorf("outcome %d failed: %s", i, o.Err)
				}
				if got := time.Duration(o.LatencyNs); got != c.latency[i] {
					t.Errorf("outcome %d latency %v, want %v", i, got, c.latency[i])
				}
			}
			if got := res.Report.Aggregate.Shed; got != int64(len(c.shed)) {
				t.Errorf("report shed %d, want %d", got, len(c.shed))
			}
		})
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpSubmit: "submit", OpFail: "fail", OpRestore: "restore",
		OpFaults: "faults", OpStep: "step", OpAdmitLimit: "admit-limit",
		Op(42): "fleet.Op(42)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", int(op), got, want)
		}
	}
}

// The rejection set is part of the replay evidence: an undersized fleet
// sheds deterministically, and the shed set is identical across replays.
func TestReplayRejectionSetDeterministic(t *testing.T) {
	cfg := Config{Devices: DefaultDevices(1, 2, 2), StealThreshold: -1}
	var ev []Event
	for i := 0; i < 16; i++ {
		ev = append(ev, Submit(synthJob(i%2)))
	}
	res, err := Verify(cfg, ev)
	if err != nil {
		t.Fatal(err)
	}
	rej := res.Rejections()
	if len(rej) == 0 {
		t.Fatal("undersized fleet shed nothing")
	}
	for idx, msg := range rej {
		if !strings.Contains(msg, "overloaded") {
			t.Errorf("rejection %d is not typed overload: %q", idx, msg)
		}
	}
	if int64(len(rej)) != res.Report.Aggregate.Shed {
		t.Fatalf("rejection set size %d vs aggregate shed %d", len(rej), res.Report.Aggregate.Shed)
	}
}
