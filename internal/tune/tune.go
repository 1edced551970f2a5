package tune

import (
	"fmt"
	"sort"
	"strings"
	"sync"

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
// baseline profile, the machine to tune for, the candidate space, and the
// measurement oracle.
type Request struct {
	// Key identifies the workload for caching and model samples.
	Key string
	// Workload and Baseline feed the cost model; Platform is the machine
	// configuration being tuned for.
	Workload Features
	Baseline Baseline
	Platform runtime.Config
	// Specs are the candidate pipeline specs ("" = compile unoptimized);
	// nil derives them from the workload features via DefaultSpecs.
	Specs []string
	// Streams are the candidate device-stream counts for batched serving
	// (nil = {0}: stream count is not the tuner's to choose).
	Streams []int
	// Requests is the batch size stream pricing assumes (0 = 1).
	Requests int
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
	// Cached reports a per-tuner cache hit (no new probes at all).
	Cached bool
	// History lists the probes spent, in order.
	History []Probe
}

// Tuner is the unified configuration search. It spends at most
// DefaultMaxProbes simulator probes per decision. It is safe for
// concurrent use; decisions are cached per (key, platform).
type Tuner struct {
	// Model is the learned predictor seeding the search; nil tunes cold.
	Model *Model

	mu    sync.Mutex
	cache map[string]Decision
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

func cacheKey(req Request) string {
	return fmt.Sprintf("%s|%s|%s|r%d", req.Key, req.Platform.MIC.Name, req.Platform.CPU.Name, req.Requests)
}

// search carries the shared state of one Tune call.
type search struct {
	model   *CostModel
	streams []int
	measure func(Config) (engine.Duration, error)

	probed  map[Config]engine.Duration
	history []Probe

	best     Config
	bestTime engine.Duration
	haveBest bool
}

// normalize canonicalizes a candidate so the probe memo never pays twice
// for configurations the runtime cannot tell apart: blocks are meaningless
// without streaming, stream counts outside the candidate set collapse to
// the caller's fixed count.
func (s *search) normalize(c Config) Config {
	if !specStreams(c.Spec) {
		c.Blocks = 0
	} else if c.Blocks <= 0 {
		c.Blocks = s.model.BestBlocks(c)
	}
	ok := false
	for _, n := range s.streams {
		if c.Streams == n {
			ok = true
			break
		}
	}
	if !ok {
		c.Streams = s.streams[0]
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

// climbBlocks refines the winning streaming configuration's block count by
// walking the ladder from its current rung while the measured time
// improves, charged to the shared probe budget. Unlike ClimbBlocks it
// walks up first and then down, without peeking at both neighbours.
func (s *search) climbBlocks() error {
	if !s.haveBest || !specStreams(s.best.Spec) {
		return nil
	}
	ladder := Ladder()
	pos := 0
	for i, n := range ladder {
		if n == s.best.Blocks {
			pos = i
			break
		}
		if n < s.best.Blocks {
			pos = i
		}
	}
	for _, dir := range []int{1, -1} {
		for p := pos + dir; p >= 0 && p < len(ladder); p += dir {
			c := s.best
			c.Blocks = ladder[p]
			before := s.bestTime
			d, done, err := s.probe(c)
			if err != nil {
				return err
			}
			if done || d >= before {
				break
			}
		}
		// Re-center on the best rung found so the downhill walk starts
		// from the winner, not the original seed.
		for i, n := range ladder {
			if n == s.best.Blocks {
				pos = i
			}
		}
	}
	return nil
}

// Tune runs the cost-model-driven search and returns the winning
// configuration with its predicted and measured cost.
func (t *Tuner) Tune(req Request) (Decision, error) {
	if req.Measure == nil {
		return Decision{}, fmt.Errorf("tune: request needs a Measure function")
	}
	key := cacheKey(req)
	t.mu.Lock()
	if d, ok := t.cache[key]; ok {
		t.mu.Unlock()
		d.Cached = true
		d.Probes = 0
		d.Source = "cache"
		d.History = nil
		return d, nil
	}
	t.mu.Unlock()

	streams := req.Streams
	if len(streams) == 0 {
		streams = []int{0}
	}
	specs := req.Specs
	if specs == nil {
		specs = DefaultSpecs(req.Workload)
	}
	m := &CostModel{
		Workload: req.Workload,
		Baseline: req.Baseline,
		Target:   req.Platform,
		Requests: req.Requests,
	}
	s := &search{
		model:   m,
		streams: streams,
		measure: req.Measure,
		probed:  map[Config]engine.Duration{},
	}

	source := "search"
	warm, err := t.warmStart(req, m, s)
	if err != nil {
		return Decision{}, err
	}
	switch warm {
	case warmExact:
		// Exact repeat from the persisted model: trust the remembered
		// measurement outright, zero probes.
		source = "model"
	case warmHit:
		source = "model"
	default:
		if err := t.coldSearch(specs, m, s); err != nil {
			return Decision{}, err
		}
	}

	d := Decision{
		TuneDecision: pass.TuneDecision{
			Spec:        s.best.Spec,
			Blocks:      s.best.Blocks,
			Streams:     s.best.Streams,
			PredictedNs: int64(m.PredictBatch(s.best)),
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
	t.mu.Lock()
	if t.cache == nil {
		t.cache = map[string]Decision{}
	}
	t.cache[key] = d
	t.mu.Unlock()
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
func (t *Tuner) warmStart(req Request, m *CostModel, s *search) (warmOutcome, error) {
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
		repriced.Blocks = m.BestBlocks(repriced)
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

// coldSearch is the full cost-ranked search: price every candidate, probe
// the top-ranked distinct specs (always including the canonical default
// when it is a candidate — the paper's profitable order earns its slot),
// then spend the remaining budget hill-climbing the winner's block count.
func (t *Tuner) coldSearch(specs []string, m *CostModel, s *search) error {
	var cands []Config
	seen := map[string]bool{}
	for _, spec := range specs {
		if seen[spec] {
			continue
		}
		seen[spec] = true
		for _, streams := range s.streams {
			c := Config{Spec: spec, Streams: streams}
			cands = append(cands, s.normalize(c))
		}
	}
	sortConfigs(cands)
	// Stable rank by predicted cost (ties keep the deterministic
	// spec/streams/blocks order from sortConfigs).
	pred := make(map[Config]engine.Duration, len(cands))
	for _, c := range cands {
		pred[c] = m.PredictBatch(c)
	}
	ordered := append([]Config(nil), cands...)
	sort.SliceStable(ordered, func(i, j int) bool { return pred[ordered[i]] < pred[ordered[j]] })

	// Probe the first candidate of each distinct spec in rank order.
	probedSpecs := map[string]bool{}
	plan := make([]Config, 0, coldSpecProbes)
	for _, c := range ordered {
		if len(plan) == coldSpecProbes {
			break
		}
		if probedSpecs[c.Spec] {
			continue
		}
		probedSpecs[c.Spec] = true
		plan = append(plan, c)
	}
	if !probedSpecs[pass.DefaultSpec] && seen[pass.DefaultSpec] && len(plan) > 0 {
		// The default order is the paper's known-good pipeline; never let
		// the model's ranking talk the search out of measuring it.
		for _, c := range ordered {
			if c.Spec == pass.DefaultSpec {
				plan[len(plan)-1] = c
				break
			}
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
