package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/vm"
)

// stackLayers are the layer calls every workload's traced run makes, in
// pipeline order. Each becomes two per-layer metrics: its median self time
// and its share of all traced time.
var stackLayers = []string{
	"minic.parse", "minic.check", "pass.run", "minic.print",
	"interp.compile", "vm.compile", "vm.exec", "runtime.run",
}

// workloadCalls are the layer calls only some workloads make. Each becomes
// a share metric only, which reads 0 on a workload that never makes the
// call: a self time would be a time that reads 0 on every run.
var workloadCalls = []string{
	"serve.enqueue", "serve.wait",
	"tune.extract", "tune.tune", "tune.probe",
	"fleet.enqueue", "fleet.step",
}

// span is one recorded call into a layer.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // id of the enclosing span; 0 for a root
	op, lane   int
}

// tracer keeps spans in memory for the traced run, plus the pass counters
// recorded at the same boundaries. Safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span // span id i+1 is spans[i]
	// The pass counters count each distinct pass-manager run once — one
	// source under one pipeline — so they do not depend on how often the
	// timed phase happened to deal each program.
	counted  map[string]bool
	passRuns int
	applied  int
	skipped  int
	outBytes int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counted: map[string]bool{}} }

// scope is a position in the span tree: new spans opened through it become
// children of span id (0 = root) and belong to op on the given lane (the
// goroutine that makes the calls).
type scope struct {
	t        *tracer
	id       int
	op, lane int
}

// root returns the scope for op's top-level spans.
func (t *tracer) root(op, lane int) scope { return scope{t: t, op: op, lane: lane} }

// begin opens a child span.
func (s scope) begin(name string) scope {
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{name: name, start: now, end: -1, parent: s.id, op: s.op, lane: s.lane})
	id := len(s.t.spans)
	s.t.mu.Unlock()
	return scope{t: s.t, id: id, op: s.op, lane: s.lane}
}

// end closes the scope's span.
func (s scope) end() {
	now := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans[s.id-1].end = now
	s.t.mu.Unlock()
}

// countPasses records a pass-manager run, identified by key, and the size
// of the source printed from its output, unless a run with that key was
// recorded before.
func (t *tracer) countPasses(key string, rs pass.Remarks, printed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.counted[key] {
		return
	}
	t.counted[key] = true
	t.passRuns++
	t.applied += len(rs.Applied())
	t.skipped += len(rs.Skipped())
	t.outBytes += printed
}

// layerStats summarizes the spans of one name.
type layerStats struct {
	self  []float64 // µs per call
	total time.Duration
	// share is total over the summed duration of every root span: the
	// fraction of all traced time the call's own work accounts for.
	share float64
}

// summarize computes each span name's self times: a span's duration minus
// the time its child spans cover.
func (t *tracer) summarize() map[string]*layerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans))
	var rootTotal time.Duration
	for _, s := range t.spans {
		switch {
		case s.end < 0:
		case s.parent > 0:
			child[s.parent-1] += s.end - s.start
		default:
			rootTotal += s.end - s.start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &layerStats{}
			out[s.name] = st
		}
		self := s.end - s.start - child[i]
		st.total += self
		st.self = append(st.self, float64(self)/float64(time.Microsecond))
	}
	if rootTotal > 0 {
		for _, st := range out {
			st.share = float64(st.total) / float64(rootTotal)
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, one thread per lane), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": i + 1, "parent": s.parent, "op": s.op},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// printSummary writes one line per span name: calls, median and total self
// time, and the share of all root-span time it accounts for.
func (t *tracer) printSummary(w io.Writer) {
	stats := t.summarize()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %8s %12s %12s %7s\n", "span", "calls", "p50 self us", "self ms", "share")
	for _, name := range names {
		st := stats[name]
		fmt.Fprintf(w, "%-16s %8d %12.1f %12.1f %7.3f\n", name, len(st.self), median(st.self),
			ms(st.total), st.share)
	}
}

// tracedOptimize is core.OptimizeSpec split into its layer calls.
func tracedOptimize(sc scope, src, spec string, cfg pass.Config) (string, error) {
	s := sc.begin("minic.parse")
	f, err := minic.Parse(src)
	s.end()
	if err != nil {
		return "", err
	}
	s = sc.begin("minic.check")
	err = minic.Check(f).Err()
	s.end()
	if err != nil {
		return "", err
	}
	s = sc.begin("pass.run")
	m, err := pass.Parse(spec, cfg)
	var rs pass.Remarks
	if err == nil {
		rs, err = m.Run(f)
	}
	s.end()
	if err != nil {
		return "", err
	}
	s = sc.begin("minic.print")
	out := minic.Print(f)
	s.end()
	sc.t.countPasses(fmt.Sprintf("%s\x00%d\x00%s", spec, cfg.Blocks, src), rs, len(out))
	return out, nil
}

// tunedConfig is the pass configuration core.OptimizeTuned compiles a
// tuner decision under.
func tunedConfig(d *pass.TuneDecision) pass.Config {
	cfg := pass.DefaultConfig()
	cfg.Tuned = d
	cfg.Blocks = d.Blocks
	return cfg
}

// tracedOptimizeTuned is core.OptimizeTuned split into its layer calls.
func tracedOptimizeTuned(sc scope, src string, d *pass.TuneDecision) (string, error) {
	return tracedOptimize(sc, src, core.TunedSpec(d), tunedConfig(d))
}

// tracedCompile is interp.Compile followed by vm.Attach, split into its
// layer calls. The process default engine must be cleared (vm.Uninstall)
// so that interp.CompileFile builds only the tree-walker's closures and the
// VM module is built, and timed, by vm.Attach alone.
func tracedCompile(sc scope, src string) (*interp.Program, error) {
	s := sc.begin("minic.parse")
	f, err := minic.Parse(src)
	s.end()
	if err != nil {
		return nil, err
	}
	s = sc.begin("interp.compile")
	p, err := interp.CompileFile(f)
	s.end()
	if err != nil {
		return nil, err
	}
	s = sc.begin("vm.compile")
	err = vm.Attach(p)
	s.end()
	return p, err
}

// tracedExec runs a compiled program on the null backend: VM execution
// alone, without the simulated platform.
func tracedExec(sc scope, p *interp.Program, setup func(*interp.Program) error, names []string) (outputs, error) {
	s := sc.begin("vm.exec")
	defer s.end()
	return execute(p, setup, names)
}
