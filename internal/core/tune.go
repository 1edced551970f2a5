package core

import (
	"fmt"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/tune"
)

// TuneSource runs the unified cost-model pipeline search (internal/tune)
// for one MiniC program on one simulated platform: extract the workload's
// features, measure one baseline run of the program as written, then let
// the tuner rank candidate (spec, blocks, streams) configurations by
// predicted cost and probe only the top few by simulated execution.
//
// This is the one measurement recipe every entry point shares — compc and
// compsim's -tune flags, the serving layer's tuned plans, and the bench
// harness's tuner-vs-oracle table all call it, so their decisions are
// comparable. key identifies the workload in the tuner's learned model
// (use a stable name, not the source text); setup injects input data
// before each measured run, must be deterministic, and may be nil.
//
// Probes are measured through one Measurer, so a distinct program runs
// once per decision: a candidate whose optimized program is one already
// measured reports the recorded makespan. The decision's Probes and
// History still count every candidate the search considered.
func TuneSource(t *tune.Tuner, key, src string, cfg runtime.Config, setup func(*interp.Program) error) (tune.Decision, error) {
	m, err := NewMeasurer(src, cfg, setup)
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: %w", key, err)
	}
	return m.tune(t, key)
}

// tune runs the search with every measurement going through m.
func (m *Measurer) tune(t *tune.Tuner, key string) (tune.Decision, error) {
	feats, err := tune.Extract(m.file)
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: features: %w", key, err)
	}
	base, err := m.run(m.text) // the program as written: the empty spec
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: baseline: %w", key, err)
	}
	d, err := t.Tune(tune.Request{
		Key:      key,
		Workload: feats,
		Baseline: tune.BaselineFromStats(base.Stats, m.cfg.MIC.LaunchOverhead),
		Platform: m.cfg,
		Measure:  m.Measure,
	})
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: %w", key, err)
	}
	return d, nil
}

// Measurer measures the candidate configurations of one tuning decision.
// It parses and checks the program once and optimizes each candidate on a
// clone of that file. It runs each distinct program text once: a candidate
// that prints a text already run — a pass that did not fire, or every
// block count of a spec whose streaming is illegal — gets the recorded
// makespan back without compiling or running. Every key is exactly the
// text that ran (the baseline and the empty spec run minic.Print of the
// parsed file), so the memo is exact as long as setup is deterministic.
//
// A Measurer serves one decision or one oracle sweep and is not safe for
// concurrent use.
type Measurer struct {
	file  *minic.File
	text  string // minic.Print(file): the program as the empty spec runs it
	cfg   runtime.Config
	setup func(*interp.Program) error
	ran   map[string]engine.Duration
}

// NewMeasurer parses and checks src for measurement on the platform cfg;
// setup injects input data before each run and may be nil.
func NewMeasurer(src string, cfg runtime.Config, setup func(*interp.Program) error) (*Measurer, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(f).Err(); err != nil {
		return nil, err
	}
	return &Measurer{file: f, text: minic.Print(f), cfg: cfg, setup: setup, ran: map[string]engine.Duration{}}, nil
}

// File returns the parsed and checked program, shared by every candidate;
// callers must not modify it.
func (m *Measurer) File() *minic.File { return m.file }

// Measure returns one candidate's makespan, running its program only if
// no earlier candidate printed the same text. Failed runs are not
// recorded.
func (m *Measurer) Measure(c tune.Config) (engine.Duration, error) {
	text, err := m.candidate(c)
	if err != nil {
		return 0, err
	}
	if d, ok := m.ran[text]; ok {
		return d, nil
	}
	res, err := m.run(text)
	return res.Stats.Time, err
}

// ClimbBlocks is the measured block-count recipe of the drivers that tune
// only the block count (serve's untuned plans, compsim -blocks auto): run
// the program under baseSpec ("" runs it as written) to seed the §III-B
// model with its D, C and K, then tune.ClimbBlocks over runs of
// pass.DefaultSpec. It also returns the baseline that seeded the climb.
func (m *Measurer) ClimbBlocks(baseSpec string) (tune.BlockChoice, tune.Baseline, error) {
	text, err := m.candidate(tune.Config{Spec: baseSpec})
	if err != nil {
		return tune.BlockChoice{}, tune.Baseline{}, err
	}
	res, err := m.run(text)
	if err != nil {
		return tune.BlockChoice{}, tune.Baseline{}, fmt.Errorf("baseline: %w", err)
	}
	bl := tune.BaselineFromStats(res.Stats, m.cfg.MIC.LaunchOverhead)
	choice, err := tune.ClimbBlocks(bl, func(n int) (engine.Duration, error) {
		return m.Measure(tune.Config{Spec: pass.DefaultSpec, Blocks: n})
	})
	return choice, bl, err
}

// run executes one program text and records its makespan.
func (m *Measurer) run(text string) (runtime.Result, error) {
	res, err := runText(text, m.cfg, m.setup)
	if err == nil {
		m.ran[text] = res.Stats.Time
	}
	return res, err
}

// candidate prints the program a configuration compiles to, optimizing a
// clone so the shared file stays as parsed.
func (m *Measurer) candidate(c tune.Config) (string, error) {
	if c.Spec == "" {
		return m.text, nil
	}
	f := minic.CloneFile(m.file)
	if err := minic.Check(f).Err(); err != nil {
		return "", err
	}
	res, err := OptimizeFileSpec(f, c.Spec, probeConfig(c))
	if err != nil {
		return "", err
	}
	return res.Source(), nil
}

// TunedRun measures one candidate configuration once: compile the program
// under the candidate's pipeline spec and block count (the empty spec runs
// the source as written) and execute it on the simulated platform. Use it
// for a single re-measure, such as re-pricing a decision on another
// machine; a search or sweep over many candidates goes through a
// Measurer, which runs each distinct program once.
func TunedRun(src string, c tune.Config, cfg runtime.Config, setup func(*interp.Program) error) (runtime.Result, error) {
	if c.Spec != "" {
		res, err := OptimizeSpec(src, c.Spec, probeConfig(c))
		if err != nil {
			return runtime.Result{}, err
		}
		src = res.Source()
	}
	return runText(src, cfg, setup)
}

// probeConfig is the pass configuration every measured candidate
// compiles under.
func probeConfig(c tune.Config) pass.Config {
	return pass.Config{Blocks: c.Blocks, ReduceMemory: true, Persistent: true}
}

// runText compiles and executes one program text.
func runText(src string, cfg runtime.Config, setup func(*interp.Program) error) (runtime.Result, error) {
	p, err := interp.Compile(src)
	if err != nil {
		return runtime.Result{}, err
	}
	return runtime.RunWithSetup(p, cfg, setup)
}
