package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"comp/internal/serve"
	"comp/internal/sim/fault"
	"comp/internal/sim/metrics"
)

// Op is one trace event's kind.
type Op int

const (
	// OpSubmit enqueues Event.Job through the router.
	OpSubmit Op = iota
	// OpFail takes Event.Device off the ring (device loss).
	OpFail
	// OpRestore returns Event.Device to the ring.
	OpRestore
	// OpFaults installs Event.Faults on Event.Device (a per-device fault
	// storm, or fault.Config{} to clear one).
	OpFaults
	// OpStep runs one batch on every device in ID order.
	OpStep
	// OpAdmitLimit caps Event.Device's admitted queue depth at Event.Limit
	// (a queue squeeze; negative restores the full depth).
	OpAdmitLimit
)

func (o Op) String() string {
	switch o {
	case OpSubmit:
		return "submit"
	case OpFail:
		return "fail"
	case OpRestore:
		return "restore"
	case OpFaults:
		return "faults"
	case OpStep:
		return "step"
	case OpAdmitLimit:
		return "admit-limit"
	}
	return fmt.Sprintf("fleet.Op(%d)", int(o))
}

// Event is one entry of a fleet trace.
type Event struct {
	Op Op
	// At is the event's virtual time; zero means one ReplayTick after the
	// previous event. Times never go backwards.
	At     time.Duration
	Job    serve.Job    // OpSubmit
	Device string       // OpFail / OpRestore / OpFaults / OpAdmitLimit
	Faults fault.Config // OpFaults
	Limit  int          // OpAdmitLimit
}

// Submit builds a submission event.
func Submit(job serve.Job) Event { return Event{Op: OpSubmit, Job: job} }

// Fail builds a device-loss event.
func Fail(id string) Event { return Event{Op: OpFail, Device: id} }

// Restore builds a device-restore event.
func Restore(id string) Event { return Event{Op: OpRestore, Device: id} }

// Storm builds a per-device fault-schedule event.
func Storm(id string, fc fault.Config) Event {
	return Event{Op: OpFaults, Device: id, Faults: fc}
}

// Step builds an explicit step event.
func Step() Event { return Event{Op: OpStep} }

// lossVictim is the device LossTrace fails: the second device of the first
// host, so a DefaultDevices fleet keeps a survivor of each plan-affinity
// class.
const lossVictim = "h0/d1"

// LossTrace builds a deterministic trace of n submissions round-robin over
// the workload mix, each with the given deadline: a batch step after every
// eighth submission when steps is set, and — when loss is set — a fault
// storm plus the loss of device h0/d1 a third of the way in, restored and
// cleared at two thirds.
func LossTrace(mix []string, n int, deadline time.Duration, steps, loss bool) []Event {
	var ev []Event
	for i := 0; i < n; i++ {
		ev = append(ev, Submit(serve.Job{Workload: mix[i%len(mix)], Deadline: deadline}))
		if loss && i == n/3 {
			ev = append(ev, Storm(lossVictim, fault.Uniform(11, 0.3)), Fail(lossVictim))
		}
		if loss && i == 2*n/3 {
			ev = append(ev, Restore(lossVictim), Storm(lossVictim, fault.Config{}))
		}
		if steps && i%8 == 7 {
			ev = append(ev, Step())
		}
	}
	return ev
}

// Outcome is one submission's answer in a replay.
type Outcome struct {
	// Index is the event's position in the trace.
	Index int `json:"index"`
	// Placement is where the router sent it.
	Placement Placement `json:"placement"`
	// Err is the error text; empty means the request completed. The set of
	// outcomes with non-empty Err is the replay's rejection set.
	Err string `json:"err,omitempty"`
	// Outputs are the completed request's output arrays.
	Outputs map[string][]float64 `json:"outputs,omitempty"`
	// LatencyNs is the virtual submit→answer latency.
	LatencyNs int64 `json:"latencyNs,omitempty"`
	// PlanCached reports plan-registry reuse for completed requests.
	PlanCached bool `json:"planCached,omitempty"`
	// Label is the server-assigned id (empty when rejected at admission).
	Label string `json:"label,omitempty"`
	// StreamID, Retries and Fallbacks are the completed request's stream
	// and fault-recovery footprint.
	StreamID  int   `json:"stream,omitempty"`
	Retries   int64 `json:"retries,omitempty"`
	Fallbacks int   `json:"fallbacks,omitempty"`
	// Cause is the typed error behind Err, for errors.Is checks.
	Cause error `json:"-"`
}

// ReplayResult is one replay's full evidence: every submission's outcome
// and the fleet rollup. OutcomesJSON / ReportJSON are the canonical bytes
// Verify compares across replays.
type ReplayResult struct {
	Outcomes     []Outcome
	Report       metrics.FleetReport
	OutcomesJSON []byte
	ReportJSON   []byte
}

// Rejections returns the indices of submissions answered with an error,
// each with its error text — the replay's rejection set.
func (r *ReplayResult) Rejections() map[int]string {
	out := map[int]string{}
	for _, o := range r.Outcomes {
		if o.Err != "" {
			out[o.Index] = o.Err
		}
	}
	return out
}

// ReplayTick is the virtual time that passes between consecutive trace
// events during Replay unless an event sets its own time.
const ReplayTick = time.Millisecond

// Replay drives a trace through a fresh stepped fleet on a virtual clock
// and returns the evidence. The configuration's Clock and Stepped fields
// are overridden; everything else (devices, thresholds, shared planner) is
// honored. Every quantity the fleet observes — submission order, queue
// depths behind every steal decision, loss and storm events, batch
// composition, deadlines, virtual latencies — is a function of the trace
// alone, so two replays of the same trace are bit-identical: outputs,
// rejection set, and the full fleet report.
//
// Batches run on OpStep events and during the final drain, which steps
// every ReplayTick from two ticks after the last event until every queue
// is empty; a trace with no OpStep simply queues everything and drains at
// the end. A shared Planner carried across replays changes
// PlanCached/TuneProbes evidence — use a fresh Config.Planner (or nil)
// when comparing replays.
func Replay(cfg Config, events []Event) (*ReplayResult, error) {
	epoch := time.Unix(0, 0).UTC()
	var offset time.Duration
	cfg.Stepped = true
	cfg.Clock = func() time.Time { return epoch.Add(offset) }
	f, err := New(cfg)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type open struct {
		idx int
		t   *serve.Ticket
	}
	var outstanding []open
	res := &ReplayResult{}

	for i, ev := range events {
		switch {
		case ev.At == 0:
			offset += ReplayTick
		case ev.At < offset:
			return nil, fmt.Errorf("fleet: replay event %d at %v is before the previous event's %v", i, ev.At, offset)
		default:
			offset = ev.At
		}
		switch ev.Op {
		case OpSubmit:
			pl, t, err := f.Enqueue(ev.Job)
			if err != nil {
				res.Outcomes = append(res.Outcomes, Outcome{Index: i, Placement: pl, Err: err.Error(), Cause: err})
				continue
			}
			res.Outcomes = append(res.Outcomes, Outcome{Index: i, Placement: pl})
			outstanding = append(outstanding, open{idx: len(res.Outcomes) - 1, t: t})
		case OpFail:
			err = f.FailDevice(ev.Device)
		case OpRestore:
			err = f.RestoreDevice(ev.Device)
		case OpFaults:
			err = f.SetDeviceFaults(ev.Device, ev.Faults)
		case OpAdmitLimit:
			var d *device
			if d, err = f.device(ev.Device); err == nil {
				d.srv.SetAdmitLimit(ev.Limit)
			}
		case OpStep:
			f.StepAll()
		default:
			err = fmt.Errorf("unknown op %v", ev.Op)
		}
		if err != nil {
			return nil, fmt.Errorf("fleet: replay event %d: %w", i, err)
		}
	}

	// Drain: keep stepping (advancing the virtual clock one tick per round
	// so latencies stay meaningful) until every device's queue is empty.
	offset += ReplayTick
	for {
		offset += ReplayTick
		if f.StepAll() == 0 {
			break
		}
	}

	for _, o := range outstanding {
		resp, err := o.t.Wait()
		out := &res.Outcomes[o.idx]
		out.Label = o.t.Label()
		if err != nil {
			out.Err, out.Cause = err.Error(), err
			continue
		}
		out.Outputs = resp.Outputs
		out.LatencyNs = int64(resp.Latency)
		out.PlanCached = resp.PlanCached
		out.StreamID = resp.StreamID
		out.Retries = resp.Retries
		out.Fallbacks = resp.Fallbacks
	}

	res.Report = f.Report()
	if res.OutcomesJSON, err = json.Marshal(res.Outcomes); err != nil {
		return nil, err
	}
	if res.ReportJSON, err = json.Marshal(res.Report); err != nil {
		return nil, err
	}
	return res, nil
}

// Verify replays the trace twice against fresh fleets and fails unless the
// two replays are bit-identical: every outcome (outputs, rejection set,
// placements, virtual latencies) and the full fleet report. It returns the
// first replay's result. A non-nil cfg.Planner is rejected — a registry
// warmed by run 1 would legitimately change run 2's evidence.
func Verify(cfg Config, events []Event) (*ReplayResult, error) {
	if cfg.Planner != nil {
		return nil, fmt.Errorf("fleet: Verify needs a fresh planner per replay; leave Config.Planner nil")
	}
	r1, err := Replay(cfg, events)
	if err != nil {
		return nil, err
	}
	r2, err := Replay(cfg, events)
	if err != nil {
		return nil, fmt.Errorf("fleet: second replay: %w", err)
	}
	if !bytes.Equal(r1.OutcomesJSON, r2.OutcomesJSON) {
		return nil, fmt.Errorf("fleet: replays diverged: outcomes differ (%d vs %d bytes)",
			len(r1.OutcomesJSON), len(r2.OutcomesJSON))
	}
	if !bytes.Equal(r1.ReportJSON, r2.ReportJSON) {
		return nil, fmt.Errorf("fleet: replays diverged: reports differ (%d vs %d bytes)",
			len(r1.ReportJSON), len(r2.ReportJSON))
	}
	return r1, nil
}
