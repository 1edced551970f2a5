// Package scenario is the serving stack's stress harness: a JSON scenario
// format plus a Go builder describing arrival processes, workload mixes,
// deadline distributions, machine shape, and timed event schedules (fault
// storms, device hot-unplug, queue-capacity squeezes). A deterministic
// generator expands a scenario and a seed into a concrete request trace,
// which replays as a one-device fleet (fleet.Replay) — a server is a fleet
// of one — and the serving invariants are checked after every run.
//
// The point is ROADMAP item 5 made systematic: the serving layer and the
// scheduler were only ever exercised by two synthetic fleets, yet — as in
// the MIC stream configurations of Li et al. (1603.08619) and the tuning
// space of Zhang et al. (1802.02760) — the interesting failure modes only
// appear under realistic mixes of bursts, deadline pressure, and faults.
// Every scenario replay asserts the same contract: no admitted request is
// lost, every rejection is a typed error, deadlines are honoured or
// answered with ErrDeadlineExceeded, and two replays of the same
// (scenario, seed) are bit-identical — outputs and ServerReport alike.
//
// Determinism rests on three legs: the generator derives every sample
// (arrival counts, mix picks, deadlines) from a pure (seed, stream, n)
// hash; the fleet replay runs the server in stepped mode on a virtual
// clock, so batch composition and every timestamp are functions of the
// trace;
// and the simulated platform beneath is already deterministic.
package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"comp/internal/sim/fault"
	"comp/internal/workloads"
)

// Limits keep scenarios — including fuzz-generated ones — bounded.
const (
	MaxWindows       = 512
	MaxRatePerWindow = 256
	MaxRequests      = 65536
	MaxMixEntries    = 16
	MaxEvents        = 32
	MaxStreams       = 16
	MaxQueueDepth    = 4096
)

// Arrival processes.
const (
	// Steady spreads Rate arrivals evenly over every window (fractional
	// rates accumulate).
	Steady = "steady"
	// Poisson draws each window's arrival count from Poisson(Rate).
	Poisson = "poisson"
	// Burst lays Rate steady arrivals per window plus Burst extra ones on
	// every Period-th window.
	Burst = "burst"
	// Diurnal modulates a Poisson rate through one ramp-up/ramp-down cycle
	// over the run: lambda(w) = Rate·(1 + (Peak−1)·sin²(πw/Windows)).
	Diurnal = "diurnal"
	// Closed models a closed loop: Clients callers, each submitting its
	// next request when the previous one is answered. Arrival counts are
	// derived from the window-granular service model (one batch of up to
	// MaxBatch per window).
	Closed = "closed"
)

// Event kinds.
const (
	// EventFaultStorm raises the fault schedule to Rates over [At, Until).
	EventFaultStorm = "fault-storm"
	// EventUnplug models device hot-unplug over [At, Until): every device
	// operation fails, so requests survive only through the recovery
	// ladder's host fallback. Until is the replug.
	EventUnplug = "unplug"
	// EventSqueeze caps the admission queue at Capacity over [At, Until).
	EventSqueeze = "squeeze"
)

// Scenario is one reproducible load description. The zero value is not
// runnable; construct with the Builder or ParseJSON and always Validate.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Windows is the number of dispatch windows; the replayer runs one
	// scheduler batch per window and keeps stepping past the last window
	// until the queue drains.
	Windows int `json:"windows"`
	// WindowMS is the virtual duration of one window in milliseconds
	// (default 1). Deadlines are expressed in window units.
	WindowMS int `json:"window_ms,omitempty"`

	Arrival  Arrival    `json:"arrival"`
	Mix      []MixEntry `json:"mix"`
	Deadline Deadline   `json:"deadline,omitempty"`
	Server   ServerSpec `json:"server,omitempty"`
	Faults   FaultSpec  `json:"faults,omitempty"`
	Events   []Event    `json:"events,omitempty"`
	Expect   Expect     `json:"expect,omitempty"`
}

// Arrival selects the arrival process.
type Arrival struct {
	Process string  `json:"process"`
	Rate    float64 `json:"rate,omitempty"`
	Burst   int     `json:"burst,omitempty"`
	Period  int     `json:"period,omitempty"`
	Clients int     `json:"clients,omitempty"`
	// Peak is the diurnal peak multiplier (default 3).
	Peak float64 `json:"peak,omitempty"`
}

// MixEntry is one workload class in the request mix. Exactly one of
// Workload, Synth, Invalid, Broken selects the class.
type MixEntry struct {
	// Workload names a registry benchmark (workloads.Get).
	Workload string `json:"workload,omitempty"`
	// Synth > 0 serves a small inline synthetic offload program whose
	// outputs depend on the scale — cheap enough for fuzzing, distinct
	// enough that plans do not collide.
	Synth int `json:"synth,omitempty"`
	// Optimize runs a synth entry through the COMP pipeline with measured
	// tuning when its plan is built.
	Optimize bool `json:"optimize,omitempty"`
	// Invalid submits a deliberately malformed job; the replayer requires
	// the typed ErrInvalidJob for every one.
	Invalid bool `json:"invalid,omitempty"`
	// Broken submits an inline source that does not compile under a fixed
	// plan key; the first build caches the error and every later request
	// must be answered from the cached entry without re-probing.
	Broken bool `json:"broken,omitempty"`
	// ExpectError marks a workload entry whose plan build is expected to
	// fail (unknown name, shared-memory benchmark). Without it, Validate
	// insists the workload exists and is servable.
	ExpectError bool `json:"expect_error,omitempty"`
	// Weight is the entry's share of the mix (default 1).
	Weight float64 `json:"weight,omitempty"`
}

// Deadline distributions. Values are in window units so scenarios scale
// with WindowMS.
type Deadline struct {
	// Dist is "", "none", "fixed" (MinWindows), or "uniform"
	// ([MinWindows, MaxWindows]).
	Dist       string  `json:"dist,omitempty"`
	MinWindows float64 `json:"min_windows,omitempty"`
	MaxWindows float64 `json:"max_windows,omitempty"`
	// Fraction is the share of requests carrying a deadline (default 1).
	Fraction float64 `json:"fraction,omitempty"`
}

// ServerSpec shapes the server and the simulated machine.
type ServerSpec struct {
	Streams    int `json:"streams,omitempty"`     // default 4
	QueueDepth int `json:"queue_depth,omitempty"` // default 16
	MaxBatch   int `json:"max_batch,omitempty"`   // default 8
	// MICThreads/CPUThreads override the default machine occupancy.
	MICThreads int `json:"mic_threads,omitempty"`
	CPUThreads int `json:"cpu_threads,omitempty"`
	// Exec pins the execution engine for every program the scenario
	// compiles ("vm", "interp", or "" = process default).
	Exec string `json:"exec,omitempty"`
}

// FaultSpec is the baseline fault schedule (fault storms override it over
// their window). Rates is keyed by kind name: dma, launch, hang, alloc.
type FaultSpec struct {
	Seed  int64              `json:"seed,omitempty"`
	Rates map[string]float64 `json:"rates,omitempty"`
}

// Event is one timed perturbation, active over windows [At, Until).
// Until 0 means "until the end of the run".
type Event struct {
	Kind     string             `json:"kind"`
	At       int                `json:"at"`
	Until    int                `json:"until,omitempty"`
	Rates    map[string]float64 `json:"rates,omitempty"`
	Capacity int                `json:"capacity,omitempty"`
}

// Expect states scenario-specific minimums the replayer asserts on top of
// the universal invariants; zero fields are not checked.
type Expect struct {
	MinCompleted int64 `json:"min_completed,omitempty"`
	MinShed      int64 `json:"min_shed,omitempty"`
	MinExpired   int64 `json:"min_expired,omitempty"`
	MinFaults    int64 `json:"min_faults,omitempty"`
	MinRetries   int64 `json:"min_retries,omitempty"`
	MinFallbacks int64 `json:"min_fallbacks,omitempty"`
}

// kindByName maps JSON rate keys onto fault kinds.
var kindByName = map[string]fault.Kind{
	"dma":    fault.DMA,
	"launch": fault.Launch,
	"hang":   fault.Hang,
	"alloc":  fault.Alloc,
}

// faultConfig turns a name-keyed rate map into a fault.Config.
func faultConfig(seed int64, rates map[string]float64) (fault.Config, error) {
	kinds := make(map[fault.Kind]float64, len(rates))
	for name, r := range rates {
		k, ok := kindByName[strings.ToLower(name)]
		if !ok {
			return fault.Config{}, fmt.Errorf("scenario: unknown fault kind %q", name)
		}
		kinds[k] = r
	}
	cfg := fault.FromRates(seed, kinds)
	return cfg, cfg.Validate()
}

// ParseJSON decodes and validates a scenario. Unknown fields are typed
// errors, not silently dropped — fuzzed inputs must fail loudly or run.
func ParseJSON(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: parse: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after the scenario object")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// MarshalJSON is the inverse of ParseJSON for round-tripping scenarios to
// disk; it is plain encoding/json marshalling of the struct.
func (s *Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// windowDur returns the virtual duration of one window.
func (s *Scenario) windowDur() time.Duration {
	ms := s.WindowMS
	if ms == 0 {
		ms = 1
	}
	return time.Duration(ms) * time.Millisecond
}

// server returns the ServerSpec with defaults resolved.
func (s *Scenario) server() ServerSpec {
	sp := s.Server
	if sp.Streams == 0 {
		sp.Streams = 4
	}
	if sp.QueueDepth == 0 {
		sp.QueueDepth = 16
	}
	if sp.MaxBatch == 0 {
		sp.MaxBatch = 8
	}
	return sp
}

// Validate reports the first configuration error. A valid scenario is
// guaranteed to expand into a bounded trace and to run through the
// replayer without configuration failures.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: missing name")
	}
	if s.Windows < 1 || s.Windows > MaxWindows {
		return fmt.Errorf("scenario %s: windows %d outside [1, %d]", s.Name, s.Windows, MaxWindows)
	}
	if s.WindowMS < 0 {
		return fmt.Errorf("scenario %s: negative window_ms %d", s.Name, s.WindowMS)
	}
	if err := s.validateArrival(); err != nil {
		return err
	}
	if err := s.validateMix(); err != nil {
		return err
	}
	if err := s.validateDeadline(); err != nil {
		return err
	}
	sp := s.server()
	if sp.Streams < 1 || sp.Streams > MaxStreams {
		return fmt.Errorf("scenario %s: streams %d outside [1, %d]", s.Name, sp.Streams, MaxStreams)
	}
	if sp.QueueDepth < 1 || sp.QueueDepth > MaxQueueDepth {
		return fmt.Errorf("scenario %s: queue_depth %d outside [1, %d]", s.Name, sp.QueueDepth, MaxQueueDepth)
	}
	if sp.MaxBatch < 1 || sp.MaxBatch > sp.QueueDepth {
		return fmt.Errorf("scenario %s: max_batch %d outside [1, queue_depth]", s.Name, sp.MaxBatch)
	}
	if sp.MICThreads < 0 || sp.CPUThreads < 0 {
		return fmt.Errorf("scenario %s: negative thread override", s.Name)
	}
	if _, err := faultConfig(s.Faults.Seed, s.Faults.Rates); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if len(s.Events) > MaxEvents {
		return fmt.Errorf("scenario %s: %d events exceed the %d cap", s.Name, len(s.Events), MaxEvents)
	}
	for i, e := range s.Events {
		if err := s.validateEvent(i, e); err != nil {
			return err
		}
	}
	return nil
}

func (s *Scenario) validateArrival() error {
	a := s.Arrival
	switch a.Process {
	case Steady, Poisson, Burst, Diurnal:
		if a.Rate < 0 || a.Rate > MaxRatePerWindow {
			return fmt.Errorf("scenario %s: rate %g outside [0, %d]", s.Name, a.Rate, MaxRatePerWindow)
		}
	case Closed:
		if a.Clients < 1 || a.Clients > MaxRatePerWindow {
			return fmt.Errorf("scenario %s: closed-loop clients %d outside [1, %d]", s.Name, a.Clients, MaxRatePerWindow)
		}
	default:
		return fmt.Errorf("scenario %s: unknown arrival process %q", s.Name, a.Process)
	}
	if a.Burst < 0 || a.Burst > MaxRatePerWindow {
		return fmt.Errorf("scenario %s: burst %d outside [0, %d]", s.Name, a.Burst, MaxRatePerWindow)
	}
	if a.Period < 0 || (a.Burst > 0 && a.Period == 0) {
		return fmt.Errorf("scenario %s: burst %d needs a positive period", s.Name, a.Burst)
	}
	if a.Peak < 0 || a.Peak > 64 {
		return fmt.Errorf("scenario %s: diurnal peak %g outside [0, 64]", s.Name, a.Peak)
	}
	// Bound the worst-case expansion so fuzzed scenarios stay tractable.
	peak := a.Peak
	if peak == 0 {
		peak = 3
	}
	worst := (a.Rate*peak + float64(a.Burst) + float64(a.Clients)) * float64(s.Windows) * 4
	if worst > MaxRequests {
		return fmt.Errorf("scenario %s: worst-case %d requests exceed the %d cap", s.Name, int(worst), MaxRequests)
	}
	return nil
}

func (s *Scenario) validateMix() error {
	if len(s.Mix) == 0 {
		return fmt.Errorf("scenario %s: empty mix", s.Name)
	}
	if len(s.Mix) > MaxMixEntries {
		return fmt.Errorf("scenario %s: %d mix entries exceed the %d cap", s.Name, len(s.Mix), MaxMixEntries)
	}
	for i, m := range s.Mix {
		kinds := 0
		for _, set := range []bool{m.Workload != "", m.Synth > 0, m.Invalid, m.Broken} {
			if set {
				kinds++
			}
		}
		if kinds != 1 {
			return fmt.Errorf("scenario %s: mix[%d] must set exactly one of workload/synth/invalid/broken", s.Name, i)
		}
		if m.Weight < 0 {
			return fmt.Errorf("scenario %s: mix[%d] negative weight %g", s.Name, i, m.Weight)
		}
		if m.Synth < 0 || m.Synth > 1<<20 {
			return fmt.Errorf("scenario %s: mix[%d] synth scale %d outside [0, 2^20]", s.Name, i, m.Synth)
		}
		if m.Optimize && m.Synth == 0 {
			return fmt.Errorf("scenario %s: mix[%d] optimize is only for synth entries", s.Name, i)
		}
		if m.Workload != "" && !m.ExpectError {
			b, err := workloads.Get(m.Workload)
			if err != nil {
				return fmt.Errorf("scenario %s: mix[%d]: %w (mark expect_error to serve it anyway)", s.Name, i, err)
			}
			if b.SharedMem {
				return fmt.Errorf("scenario %s: mix[%d]: %s is a shared-memory benchmark (mark expect_error to serve it anyway)", s.Name, i, m.Workload)
			}
		}
	}
	return nil
}

func (s *Scenario) validateDeadline() error {
	d := s.Deadline
	switch d.Dist {
	case "", "none":
		return nil
	case "fixed":
		if d.MinWindows <= 0 {
			return fmt.Errorf("scenario %s: fixed deadline needs min_windows > 0", s.Name)
		}
	case "uniform":
		if d.MinWindows <= 0 || d.MaxWindows < d.MinWindows {
			return fmt.Errorf("scenario %s: uniform deadline needs 0 < min_windows <= max_windows", s.Name)
		}
	default:
		return fmt.Errorf("scenario %s: unknown deadline dist %q", s.Name, d.Dist)
	}
	if d.Fraction < 0 || d.Fraction > 1 {
		return fmt.Errorf("scenario %s: deadline fraction %g outside [0, 1]", s.Name, d.Fraction)
	}
	return nil
}

func (s *Scenario) validateEvent(i int, e Event) error {
	if e.At < 0 || e.At >= s.Windows {
		return fmt.Errorf("scenario %s: events[%d] at %d outside [0, %d)", s.Name, i, e.At, s.Windows)
	}
	if e.Until != 0 && e.Until <= e.At {
		return fmt.Errorf("scenario %s: events[%d] until %d not after at %d", s.Name, i, e.Until, e.At)
	}
	switch e.Kind {
	case EventFaultStorm:
		if len(e.Rates) == 0 {
			return fmt.Errorf("scenario %s: events[%d] fault-storm without rates", s.Name, i)
		}
		if _, err := faultConfig(0, e.Rates); err != nil {
			return fmt.Errorf("scenario %s: events[%d]: %w", s.Name, i, err)
		}
	case EventUnplug:
		// No parameters: the device is simply gone.
	case EventSqueeze:
		if e.Capacity < 0 || e.Capacity > MaxQueueDepth {
			return fmt.Errorf("scenario %s: events[%d] squeeze capacity %d outside [0, %d]", s.Name, i, e.Capacity, MaxQueueDepth)
		}
	default:
		return fmt.Errorf("scenario %s: events[%d] unknown kind %q", s.Name, i, e.Kind)
	}
	return nil
}

// Builder assembles scenarios fluently; terminate with Build, which
// validates. The zero Builder is not usable — start with New.
type Builder struct{ sc Scenario }

// New starts a scenario with the given name and window count.
func New(name string, windows int) *Builder {
	return &Builder{sc: Scenario{Name: name, Windows: windows}}
}

// Describe sets the human-readable description.
func (b *Builder) Describe(d string) *Builder { b.sc.Description = d; return b }

// Arrive selects an open-loop arrival process.
func (b *Builder) Arrive(process string, rate float64) *Builder {
	b.sc.Arrival.Process = process
	b.sc.Arrival.Rate = rate
	return b
}

// BurstEvery adds `extra` arrivals on every period-th window (with the
// Burst process).
func (b *Builder) BurstEvery(extra, period int) *Builder {
	b.sc.Arrival.Burst = extra
	b.sc.Arrival.Period = period
	return b
}

// Peak sets the diurnal peak multiplier.
func (b *Builder) Peak(p float64) *Builder { b.sc.Arrival.Peak = p; return b }

// ClosedLoop selects the closed arrival process with the given population.
func (b *Builder) ClosedLoop(clients int) *Builder {
	b.sc.Arrival.Process = Closed
	b.sc.Arrival.Clients = clients
	return b
}

// Workload adds a registry benchmark to the mix.
func (b *Builder) Workload(name string, weight float64) *Builder {
	b.sc.Mix = append(b.sc.Mix, MixEntry{Workload: name, Weight: weight})
	return b
}

// Synth adds a synthetic inline program of the given scale to the mix.
func (b *Builder) Synth(scale int, weight float64, optimize bool) *Builder {
	b.sc.Mix = append(b.sc.Mix, MixEntry{Synth: scale, Weight: weight, Optimize: optimize})
	return b
}

// Invalid adds malformed submissions to the mix.
func (b *Builder) Invalid(weight float64) *Builder {
	b.sc.Mix = append(b.sc.Mix, MixEntry{Invalid: true, Weight: weight})
	return b
}

// Broken adds non-compiling inline submissions (cached plan error) to the
// mix.
func (b *Builder) Broken(weight float64) *Builder {
	b.sc.Mix = append(b.sc.Mix, MixEntry{Broken: true, Weight: weight})
	return b
}

// Deadlines sets the deadline distribution.
func (b *Builder) Deadlines(dist string, minW, maxW, fraction float64) *Builder {
	b.sc.Deadline = Deadline{Dist: dist, MinWindows: minW, MaxWindows: maxW, Fraction: fraction}
	return b
}

// Server shapes the server: streams, queue depth, max batch.
func (b *Builder) Server(streams, queue, maxBatch int) *Builder {
	b.sc.Server.Streams = streams
	b.sc.Server.QueueDepth = queue
	b.sc.Server.MaxBatch = maxBatch
	return b
}

// Faults sets the baseline fault schedule.
func (b *Builder) Faults(seed int64, rates map[string]float64) *Builder {
	b.sc.Faults = FaultSpec{Seed: seed, Rates: rates}
	return b
}

// FaultStorm raises fault rates over [at, until).
func (b *Builder) FaultStorm(at, until int, rates map[string]float64) *Builder {
	b.sc.Events = append(b.sc.Events, Event{Kind: EventFaultStorm, At: at, Until: until, Rates: rates})
	return b
}

// Unplug removes the device over [at, until) — replug at until.
func (b *Builder) Unplug(at, until int) *Builder {
	b.sc.Events = append(b.sc.Events, Event{Kind: EventUnplug, At: at, Until: until})
	return b
}

// Squeeze caps the admission queue at capacity over [at, until).
func (b *Builder) Squeeze(at, until, capacity int) *Builder {
	b.sc.Events = append(b.sc.Events, Event{Kind: EventSqueeze, At: at, Until: until, Capacity: capacity})
	return b
}

// Expecting installs scenario-specific minimum expectations.
func (b *Builder) Expecting(e Expect) *Builder { b.sc.Expect = e; return b }

// Build validates and returns the scenario.
func (b *Builder) Build() (*Scenario, error) {
	sc := b.sc
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// MustBuild is Build for the built-in table; it panics on error.
func (b *Builder) MustBuild() *Scenario {
	sc, err := b.Build()
	if err != nil {
		panic(err)
	}
	return sc
}
