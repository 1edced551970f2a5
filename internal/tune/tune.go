package tune

import (
	"fmt"
	"sort"
	"strings"

	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
)

// warmRadius is the feature-space distance under which a model sample is
// trusted to seed the search directly (the warm path).
const warmRadius = 0.25

// coldSpecProbes is how many distinct pipeline specs the cold search
// measures before refining the winner's block count; the rest of the
// budget goes to the climb.
const coldSpecProbes = 3

// Request describes one tuning problem: the workload's features and
// baseline profile, the machine to tune for, and the measurement oracle.
// The candidate pipelines are DefaultSpecs of the workload features.
type Request struct {
	// Key identifies the workload in model samples.
	Key string
	// Workload and Baseline feed the cost model; Platform is the machine
	// configuration being tuned for (and the one the baseline ran on).
	Workload Features
	Baseline Baseline
	Platform runtime.Config
	// Measure runs one candidate configuration and returns its makespan.
	Measure func(Config) (engine.Duration, error)
}

// Probe records one simulator measurement the search spent.
type Probe struct {
	Config Config          `json:"config"`
	Time   engine.Duration `json:"time"`
}

// Decision is the tuner's answer. The embedded pass.TuneDecision is what
// the tune pipeline stage emits as a structured remark.
type Decision struct {
	pass.TuneDecision
	// Config is the winning configuration in the tuner's own terms.
	Config Config
	// History lists the probes spent, in order.
	History []Probe
}

// Tuner is the unified configuration search. It spends at most
// DefaultMaxProbes simulator probes per decision and keeps no state of its
// own between decisions, so it is safe for concurrent use (the Model takes
// its own lock).
type Tuner struct {
	// Model is the learned predictor seeding the search; nil tunes cold.
	Model *Model
}

// DefaultSpecs derives the candidate pipeline specs from the workload
// features: the canonical-order subsets of the passes that could plausibly
// help, the unoptimized baseline, and — when both regularization and
// streaming are in play — the one non-canonical ordering worth testing
// (streaming before regularization, which streams only the loops legal as
// written and leaves the gathers upfront).
func DefaultSpecs(w Features) []string {
	var passes []string
	if w.MergeInner >= 2 {
		passes = append(passes, "merge")
	}
	if w.Irregular > 0 {
		passes = append(passes, "regularize")
	}
	if w.StreamLegal > 0 || w.RegUnlocks > 0 {
		passes = append(passes, "streaming")
	}
	specs := []string{""}
	for mask := 1; mask < 1<<len(passes); mask++ {
		var names []string
		for i, p := range passes {
			if mask&(1<<i) != 0 {
				names = append(names, p)
			}
		}
		specs = append(specs, strings.Join(names, ","))
	}
	if w.Irregular > 0 && (w.StreamLegal > 0 || w.RegUnlocks > 0) {
		var names []string
		if w.MergeInner >= 2 {
			names = append(names, "merge")
		}
		specs = append(specs, strings.Join(append(names, "streaming", "regularize"), ","))
	}
	return specs
}

// search carries the shared state of one Tune call.
type search struct {
	model   *CostModel
	measure func(Config) (engine.Duration, error)

	probed  map[Config]engine.Duration
	history []Probe

	best     Config
	bestTime engine.Duration
	haveBest bool
}

// normalize canonicalizes a candidate so the probe memo never pays twice
// for configurations the runtime cannot tell apart: blocks are meaningless
// without streaming, and an unset block count takes the model's best.
func (s *search) normalize(c Config) Config {
	if !specStreams(c.Spec) {
		c.Blocks = 0
	} else if c.Blocks <= 0 {
		c.Blocks = s.model.BestBlocks(c)
	}
	return c
}

// probe measures c (memoized), charging the budget only for new
// configurations. done reports the budget was already exhausted.
func (s *search) probe(c Config) (dur engine.Duration, done bool, err error) {
	c = s.normalize(c)
	if d, ok := s.probed[c]; ok {
		return d, false, nil
	}
	if len(s.history) >= DefaultMaxProbes {
		return 0, true, nil
	}
	d, err := s.measure(c)
	if err != nil {
		return 0, false, fmt.Errorf("tune: probing %+v: %w", c, err)
	}
	s.probed[c] = d
	s.history = append(s.history, Probe{Config: c, Time: d})
	if !s.haveBest || d < s.bestTime {
		s.best, s.bestTime, s.haveBest = c, d, true
	}
	return d, false, nil
}

// climbBlocks refines the winning streaming configuration's block count
// with the shared ladder climb, seeded at the winner's rung and charged to
// the search's memoized probe budget.
func (s *search) climbBlocks() error {
	if !s.haveBest || !specStreams(s.best.Spec) {
		return nil
	}
	winner := s.best
	return climb(winner.Blocks, func(n int) (engine.Duration, bool, error) {
		c := winner
		c.Blocks = n
		d, done, err := s.probe(c)
		return d, !done && err == nil, err
	})
}

// Tune runs the cost-model-driven search and returns the winning
// configuration with its predicted and measured cost.
func (t *Tuner) Tune(req Request) (Decision, error) {
	if req.Measure == nil {
		return Decision{}, fmt.Errorf("tune: request needs a Measure function")
	}
	m := &CostModel{Workload: req.Workload, Baseline: req.Baseline, Target: req.Platform}
	s := &search{
		model:   m,
		measure: req.Measure,
		probed:  map[Config]engine.Duration{},
	}

	source := "search"
	warm, err := t.warmStart(req, s)
	if err != nil {
		return Decision{}, err
	}
	switch warm {
	case warmExact, warmHit:
		// An exact repeat trusts the remembered measurement outright (zero
		// probes); a hit on the same workload probed at most two.
		source = "model"
	default:
		if err := s.coldSearch(DefaultSpecs(req.Workload)); err != nil {
			return Decision{}, err
		}
	}

	d := Decision{
		TuneDecision: pass.TuneDecision{
			Spec:        s.best.Spec,
			Blocks:      s.best.Blocks,
			PredictedNs: int64(m.Predict(s.best)),
			MeasuredNs:  int64(s.bestTime),
			Probes:      len(s.history),
			Source:      source,
		},
		Config:  s.best,
		History: s.history,
	}
	if t.Model != nil && warm != warmExact {
		t.Model.Observe(Sample{
			Key:        req.Key,
			Workload:   req.Workload,
			Platform:   PlatformOf(req.Platform),
			Config:     s.best,
			MeasuredNs: int64(s.bestTime),
		})
	}
	return d, nil
}

type warmOutcome int

const (
	warmMiss warmOutcome = iota
	warmHit
	warmExact
)

// warmStart consults the learned predictor. An exact feature match reuses
// the remembered configuration and measurement with zero probes. A
// near-miss for the *same workload* (a machine configuration the model
// never saw) probes at most two candidates: the remembered configuration
// re-priced for the target machine (the cost model picks its block count
// fresh, which is what transfers experience across machines), and the
// remembered configuration verbatim. A near-miss for a *different*
// workload only seeds the search — one probe of the neighbour's repriced
// configuration — and then falls through to the cold search: similar
// features do not guarantee the same winning pipeline (a regularization
// workload can sit within the radius of a pure streaming one), so the
// neighbour's answer is a head start, never a verdict.
func (t *Tuner) warmStart(req Request, s *search) (warmOutcome, error) {
	if t.Model == nil {
		return warmMiss, nil
	}
	sample, dist, ok := t.Model.Nearest(req.Workload, PlatformOf(req.Platform))
	if !ok || dist > warmRadius {
		return warmMiss, nil
	}
	if dist == 0 && sample.MeasuredNs > 0 {
		s.best = s.normalize(sample.Config)
		s.bestTime = engine.Duration(sample.MeasuredNs)
		s.haveBest = true
		return warmExact, nil
	}
	repriced := sample.Config
	if specStreams(repriced.Spec) {
		repriced.Blocks = s.model.BestBlocks(repriced)
	}
	if _, _, err := s.probe(repriced); err != nil {
		return warmMiss, err
	}
	if sample.Key != req.Key {
		return warmMiss, nil
	}
	if _, _, err := s.probe(sample.Config); err != nil {
		return warmMiss, err
	}
	if !s.haveBest {
		return warmMiss, nil
	}
	return warmHit, nil
}

// coldSearch is the full cost-ranked search: price every candidate spec,
// probe the top-ranked ones (always including the canonical default when
// it is a candidate — the paper's profitable order earns its slot), then
// spend the remaining budget hill-climbing the winner's block count.
func (s *search) coldSearch(specs []string) error {
	sort.Strings(specs)
	cands := make([]Config, len(specs))
	for i, spec := range specs {
		cands[i] = s.normalize(Config{Spec: spec})
	}
	// Stable rank by predicted cost (ties keep the spec order).
	pred := make(map[Config]engine.Duration, len(cands))
	for _, c := range cands {
		pred[c] = s.model.Predict(c)
	}
	sort.SliceStable(cands, func(i, j int) bool { return pred[cands[i]] < pred[cands[j]] })

	plan := append([]Config(nil), cands[:min(coldSpecProbes, len(cands))]...)
	for i, c := range cands {
		if c.Spec == pass.DefaultSpec && i >= len(plan) {
			// The default order is the paper's known-good pipeline; never
			// let the model's ranking talk the search out of measuring it.
			plan[len(plan)-1] = c
		}
	}
	for _, c := range plan {
		if _, done, err := s.probe(c); err != nil {
			return err
		} else if done {
			break
		}
	}
	if !s.haveBest {
		return fmt.Errorf("tune: probe budget %d too small to measure any candidate", DefaultMaxProbes)
	}
	return s.climbBlocks()
}
