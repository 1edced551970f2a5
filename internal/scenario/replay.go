package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"comp/internal/fleet"
	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/fault"
	"comp/internal/sim/metrics"
)

// synthSource is the inline MiniC program behind synth mix entries: one
// offload over a small array whose outputs depend on the scale, so synth
// plans at different scales never collide in the cache. It is deliberately
// tiny — fuzzed scenarios replay hundreds of these.
func synthSource(scale int) string {
	return fmt.Sprintf(`
float a[2048];
float out[2048];
int n;
int main(void) {
    int i;
    n = 2048;
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

// brokenSource does not parse; its plan build fails once and the error is
// cached under a fixed key, so every later broken request must be answered
// from the cached entry without recompiling or re-probing.
const brokenSource = "int main(void) { return 0"

// brokenKey is the shared plan-cache key for broken submissions.
const brokenKey = "scenario-broken"

// Outcome is one request's answer.
type Outcome struct {
	ID  int `json:"id"`
	Mix int `json:"mix"`
	// Label is the server-assigned id (empty when rejected at admission).
	Label string `json:"label,omitempty"`
	// Err is the error text; empty means the request completed.
	Err string `json:"err,omitempty"`
	// Outputs are the completed request's output arrays.
	Outputs map[string][]float64 `json:"outputs,omitempty"`
	// LatencyNs is the virtual submit→answer latency.
	LatencyNs int64 `json:"latency_ns,omitempty"`
	StreamID  int   `json:"stream,omitempty"`
	Retries   int64 `json:"retries,omitempty"`
	Fallbacks int   `json:"fallbacks,omitempty"`
	// PlanCached reports plan-cache reuse for completed requests.
	PlanCached bool `json:"plan_cached,omitempty"`

	err error
}

// Completed reports whether the request was served successfully.
func (o Outcome) Completed() bool { return o.Err == "" }

// Result is one replay's full evidence: the trace it executed, every
// request's outcome, and the server report. OutcomesJSON/ReportJSON are
// the canonical bytes a golden pins.
type Result struct {
	Trace        *Trace
	Outcomes     []Outcome
	Report       metrics.ServerReport
	ReportJSON   []byte
	OutcomesJSON []byte
}

// Replay expands the scenario with the seed and replays the trace.
func Replay(sc *Scenario, seed int64) (*Result, error) {
	tr, err := sc.Generate(seed)
	if err != nil {
		return nil, err
	}
	return ReplayTrace(tr)
}

// ReplayTrace replays a trace once on a one-device stepped fleet: a server
// is a fleet of one. Everything the server observes is a function of the
// trace, so two replays are bit-identical.
func ReplayTrace(tr *Trace) (*Result, error) { return replay(tr, fleet.Replay) }

// Verify replays (scenario, seed) twice through fleet.Verify, which demands
// bit-identical evidence — the same per-request outputs, errors, latencies
// and stream assignments, and the same report — and checks the serving
// invariants on the result. It returns the first replay's result.
func Verify(sc *Scenario, seed int64) (*Result, error) {
	tr, err := sc.Generate(seed)
	if err != nil {
		return nil, err
	}
	res, err := replay(tr, fleet.Verify)
	if err != nil {
		return nil, err
	}
	if err := res.CheckInvariants(); err != nil {
		return nil, err
	}
	return res, nil
}

// device is the one fleet member a scenario replays on.
const device = "server"

// activeState resolves which perturbations are in force during a window:
// the effective fault schedule and the admission cap. Events with Until 0
// stay active through the drain windows after the last arrival.
func activeState(sc *Scenario, w int, base fault.Config) (fault.Config, int) {
	fc := base
	limit := -1
	for _, e := range sc.Events {
		until := e.Until
		if until == 0 {
			until = 1 << 30
		}
		if w < e.At || w >= until {
			continue
		}
		switch e.Kind {
		case EventFaultStorm:
			// Validated at build time; storms replace the whole schedule so
			// overlapping storms compose last-wins, like operator actions.
			fc, _ = faultConfig(sc.Faults.Seed, e.Rates)
		case EventUnplug:
			// Every device operation fails; requests survive only through
			// the recovery ladder's host fallback.
			fc = fault.Uniform(sc.Faults.Seed, 1)
		case EventSqueeze:
			limit = e.Capacity
		}
	}
	return fc, limit
}

// compile turns a trace into a one-device fleet and its event trace. Each
// window w installs its fault schedule and admission cap at its first
// event, submits its arrivals at their virtual times, and steps once at
// the window's end. Drain windows continue the same way up to
// Windows+len(requests)+1 — every step answers at least one queued
// request, and events with Until 0 stay active while draining — and a
// step on an empty queue is a no-op.
func compile(tr *Trace) (fleet.Config, []fleet.Event, error) {
	sc := tr.Scenario
	if err := sc.Validate(); err != nil {
		return fleet.Config{}, nil, err
	}
	sp := sc.server()

	rtCfg := runtime.DefaultConfig()
	rtCfg.DisableTrace = true
	if sp.MICThreads > 0 {
		rtCfg.MICThreads = sp.MICThreads
	}
	if sp.CPUThreads > 0 {
		rtCfg.CPUThreads = sp.CPUThreads
	}
	baseFaults, err := faultConfig(sc.Faults.Seed, sc.Faults.Rates)
	if err != nil {
		return fleet.Config{}, nil, err
	}
	rtCfg.Faults = baseFaults
	cfg := fleet.Config{
		Devices: []fleet.DeviceConfig{{
			ID:         device,
			Runtime:    &rtCfg,
			Streams:    sp.Streams,
			QueueDepth: sp.QueueDepth,
			MaxBatch:   sp.MaxBatch,
		}},
		Exec: sp.Exec,
	}

	byWindow := make([][]Request, sc.Windows)
	for _, req := range tr.Requests {
		byWindow[req.Window] = append(byWindow[req.Window], req)
	}
	var events []fleet.Event
	for w := 0; w < sc.Windows+len(tr.Requests)+1; w++ {
		var arrivals []Request
		if w < sc.Windows {
			arrivals = byWindow[w]
		}
		end := time.Duration(w+1) * tr.Window
		start := end
		if len(arrivals) > 0 {
			start = arrivals[0].Arrival
		}
		fc, limit := activeState(sc, w, baseFaults)
		events = append(events,
			fleet.Event{Op: fleet.OpFaults, At: start, Device: device, Faults: fc},
			fleet.Event{Op: fleet.OpAdmitLimit, At: start, Device: device, Limit: limit})
		for _, req := range arrivals {
			events = append(events, fleet.Event{Op: fleet.OpSubmit, At: req.Arrival, Job: jobFor(sc, req)})
		}
		events = append(events, fleet.Event{Op: fleet.OpStep, At: end})
	}
	return cfg, events, nil
}

// replay compiles the trace, runs it through run (fleet.Replay or
// fleet.Verify), and reads the one device's evidence back per request.
func replay(tr *Trace, run func(fleet.Config, []fleet.Event) (*fleet.ReplayResult, error)) (*Result, error) {
	cfg, events, err := compile(tr)
	if err != nil {
		return nil, err
	}
	fr, err := run(cfg, events)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", tr.Scenario.Name, err)
	}
	// Submissions follow request order, so outcome i answers request i.
	res := &Result{Trace: tr, Outcomes: make([]Outcome, len(fr.Outcomes)), Report: fr.Report.Devices[0].ServerReport}
	for i, o := range fr.Outcomes {
		req := tr.Requests[i]
		res.Outcomes[i] = Outcome{
			ID: req.ID, Mix: req.Mix, Label: o.Label, Err: o.Err,
			Outputs: o.Outputs, LatencyNs: o.LatencyNs, StreamID: o.StreamID,
			Retries: o.Retries, Fallbacks: o.Fallbacks, PlanCached: o.PlanCached,
			err: o.Cause,
		}
	}
	if res.ReportJSON, err = json.Marshal(res.Report); err != nil {
		return nil, err
	}
	if res.OutcomesJSON, err = json.Marshal(res.Outcomes); err != nil {
		return nil, err
	}
	return res, nil
}

// jobFor shapes one request's serve.Job from its mix entry.
func jobFor(sc *Scenario, req Request) serve.Job {
	m := sc.Mix[req.Mix]
	switch {
	case m.Workload != "":
		return serve.Job{Workload: m.Workload, Deadline: req.Deadline}
	case m.Synth > 0:
		key := fmt.Sprintf("scenario-synth-%d", m.Synth)
		if m.Optimize {
			key += "-opt"
		}
		return serve.Job{
			Key:      key,
			Source:   synthSource(m.Synth),
			Outputs:  []string{"out"},
			Optimize: m.Optimize,
			Deadline: req.Deadline,
		}
	case m.Broken:
		return serve.Job{Key: brokenKey, Source: brokenSource, Deadline: req.Deadline}
	default: // Invalid
		return serve.Job{Deadline: req.Deadline}
	}
}

// CheckInvariants asserts the serving contract over one replay:
//
//  1. Every request is answered exactly once — no silent drops.
//  2. Every rejection is a typed error; only expected-bad mix entries may
//     fail with anything else, and malformed submissions must see
//     ErrInvalidJob specifically.
//  3. Deadlines are honoured: a completed request never exceeds its
//     deadline, and ErrDeadlineExceeded only answers requests that had one.
//  4. Completed workload/synth requests carry non-empty outputs.
//  5. The report's accounting balances against the per-request outcomes.
//  6. The scenario's Expect minimums hold.
func (r *Result) CheckInvariants() error {
	sc := r.Trace.Scenario
	if len(r.Outcomes) != len(r.Trace.Requests) {
		return fmt.Errorf("scenario %s: %d outcomes for %d requests", sc.Name, len(r.Outcomes), len(r.Trace.Requests))
	}
	var completed, failed, shed, expired, invalid int64
	for i, out := range r.Outcomes {
		req := r.Trace.Requests[i]
		m := sc.Mix[out.Mix]
		if out.Completed() {
			completed++
			if (m.Workload != "" || m.Synth > 0) && len(out.Outputs) == 0 {
				return fmt.Errorf("scenario %s: request %d completed without outputs", sc.Name, out.ID)
			}
			if req.Deadline > 0 && time.Duration(out.LatencyNs) > req.Deadline {
				return fmt.Errorf("scenario %s: request %d completed at %v past its %v deadline",
					sc.Name, out.ID, time.Duration(out.LatencyNs), req.Deadline)
			}
			if m.Invalid || m.Broken {
				return fmt.Errorf("scenario %s: %s request %d completed", sc.Name, mixKind(m), out.ID)
			}
			continue
		}
		switch {
		case errors.Is(out.err, serve.ErrInvalidJob):
			invalid++
		case errors.Is(out.err, serve.ErrOverloaded):
			shed++
		case errors.Is(out.err, serve.ErrDeadlineExceeded):
			expired++
			if req.Deadline <= 0 {
				return fmt.Errorf("scenario %s: request %d expired without a deadline", sc.Name, out.ID)
			}
		case errors.Is(out.err, serve.ErrClosed):
			failed++
		default:
			// Untyped errors are legal only for mix entries that promise
			// them (broken source, expect_error workloads).
			if !m.Broken && !m.ExpectError {
				return fmt.Errorf("scenario %s: request %d failed with untyped error %q", sc.Name, out.ID, out.Err)
			}
			failed++
		}
		if m.Invalid && !errors.Is(out.err, serve.ErrInvalidJob) {
			return fmt.Errorf("scenario %s: invalid request %d got %q, want ErrInvalidJob", sc.Name, out.ID, out.Err)
		}
	}

	rep := r.Report
	if rep.Submitted != int64(len(r.Outcomes)) {
		return fmt.Errorf("scenario %s: report submitted %d, trace has %d", sc.Name, rep.Submitted, len(r.Outcomes))
	}
	if rep.Submitted != rep.Completed+rep.Failed+rep.Shed+rep.Expired+rep.Invalid {
		return fmt.Errorf("scenario %s: accounting leak: submitted %d != completed %d + failed %d + shed %d + expired %d + invalid %d",
			sc.Name, rep.Submitted, rep.Completed, rep.Failed, rep.Shed, rep.Expired, rep.Invalid)
	}
	if rep.Admitted != rep.Completed+rep.Failed+rep.Expired {
		return fmt.Errorf("scenario %s: admitted %d != completed %d + failed %d + expired %d",
			sc.Name, rep.Admitted, rep.Completed, rep.Failed, rep.Expired)
	}
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"completed", rep.Completed, completed},
		{"failed", rep.Failed, failed},
		{"shed", rep.Shed, shed},
		{"expired", rep.Expired, expired},
		{"invalid", rep.Invalid, invalid},
	} {
		if c.got != c.want {
			return fmt.Errorf("scenario %s: report %s %d, outcomes say %d", sc.Name, c.name, c.got, c.want)
		}
	}

	e := sc.Expect
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"completed", rep.Completed, e.MinCompleted},
		{"shed", rep.Shed, e.MinShed},
		{"expired", rep.Expired, e.MinExpired},
		{"faults injected", rep.FaultsInjected, e.MinFaults},
		{"retries", rep.Retries, e.MinRetries},
		{"fallbacks", rep.Fallbacks, e.MinFallbacks},
	} {
		if c.want > 0 && c.got < c.want {
			return fmt.Errorf("scenario %s: expected at least %d %s, got %d", sc.Name, c.want, c.name, c.got)
		}
	}
	return nil
}

func mixKind(m MixEntry) string {
	switch {
	case m.Workload != "":
		return "workload " + m.Workload
	case m.Synth > 0:
		return fmt.Sprintf("synth-%d", m.Synth)
	case m.Broken:
		return "broken"
	default:
		return "invalid"
	}
}
