package serve

import (
	"fmt"
	"sort"
	"sync"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/metrics"
	"comp/internal/tune"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// Plan is one cached serving plan: everything expensive about preparing a
// request — optimizing the source, tuning the streaming block count by
// measurement, and compiling the result — done once per (workload,
// machine) key. The VM code is kept as a read-only module plus the
// program's global layout; a request executes on a fresh state-only
// instance of it (interp.NewInstance) and compiles nothing. Only the
// tree-walker path (engine mode "interp", or a program the VM declines)
// still compiles the source once per request.
type Plan struct {
	// Key identifies the plan in the cache: the job key plus the machine
	// configuration it was tuned for.
	Key string
	// Source is the optimized MiniC source requests execute.
	Source string
	// Blocks is the tuned streaming block count (0 when the workload does
	// not stream).
	Blocks int
	// TuneProbes is how many measured runs building the plan spent; cache
	// hits spend zero.
	TuneProbes int
	// Outputs lists the global arrays a Response reports back.
	Outputs []string
	// Remarks is the remark trail the compiler recorded while building the
	// plan — why each pass applied or declined. Cache hits surface it in
	// ServerReport without recompiling.
	Remarks pass.Remarks
	// Tuned is the cost-model tuner's decision when the plan was built by
	// the unified pipeline search (Config.Tune); nil for legacy
	// block-only tuning.
	Tuned *pass.TuneDecision
	// setup injects the workload's generated inputs (nil for inline-source
	// jobs without a setup hook).
	setup func(*interp.Program) error

	// exec caches the VM code once compiled.
	execMu sync.Mutex
	exec   *executable
}

// executable is a plan's code compiled for the VM: the program's global
// layout and the read-only engine that every request's instance runs. It
// holds no program, so no AST, tree-walker code or array storage stays
// alive with the plan.
type executable struct {
	layout *interp.Layout
	engine interp.Engine // nil when the VM declined the program
	err    error
}

// planEntry is a cache slot with singleflight semantics: the first
// requester builds, concurrent requesters for the same key block on ready
// and share the result (they count as hits — they trigger no tuning).
type planEntry struct {
	ready chan struct{}
	plan  *Plan
	err   error
	// hits counts reuses of this entry (guarded by Planner.mu).
	hits int64
}

// Planner builds and caches serving plans. It is safe for concurrent use
// and may be shared between servers so a fleet warms one cache.
type Planner struct {
	mu     sync.Mutex
	ct     *tune.Tuner // cost-model pipeline tuner; nil = legacy block tuning
	plans  map[string]*planEntry
	hits   int64
	misses int64
	probes int64

	// testCompiled, when set by tests, observes every compile of a plan's
	// source on the serving path: the plan key and the engine mode.
	testCompiled func(key, mode string)
}

// NewPlanner returns an empty plan cache.
func NewPlanner() *Planner {
	return &Planner{plans: map[string]*planEntry{}}
}

// EnableTune switches the planner to the unified cost-model pipeline
// search (internal/tune) for every plan built from now on. The model
// seeds the search and accumulates every decision; nil starts an empty
// private model. Idempotent: the first call wins, so servers sharing a
// planner share one tuner and one model.
func (pl *Planner) EnableTune(model *tune.Model) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.ct != nil {
		return
	}
	if model == nil {
		model = tune.NewModel()
	}
	pl.ct = &tune.Tuner{Model: model}
}

func (pl *Planner) costTuner() *tune.Tuner {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.ct
}

// Stats returns the cache counters: hits, misses, and total tuning probes
// spent building plans. Probes stop growing once every key in the request
// trace has been planned — the "tune once, serve forever" property the
// serving layer exists to provide.
func (pl *Planner) Stats() (hits, misses, probes int64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.hits, pl.misses, pl.probes
}

// Explain reports every successfully built plan in the cache — key, tuned
// shape, per-plan hit count, and the remark trail recorded at build time —
// sorted by key. In-flight builds and cached failures are omitted. This is
// how a cache hit explains its plan's shape without recompiling: the trail
// was captured once, at build.
func (pl *Planner) Explain() []metrics.PlanReport {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	var out []metrics.PlanReport
	for _, e := range pl.plans {
		select {
		case <-e.ready:
		default:
			continue // still building
		}
		if e.err != nil || e.plan == nil {
			continue
		}
		out = append(out, metrics.PlanReport{
			Key:        e.plan.Key,
			Blocks:     e.plan.Blocks,
			TuneProbes: e.plan.TuneProbes,
			Hits:       e.hits,
			Remarks:    e.plan.Remarks,
			Tuned:      e.plan.Tuned,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// cacheKey derives the plan-cache key for a job on a platform: tuning
// decisions depend on both the workload and the machine it runs on, and —
// when the cost-model tuner is on — on the tuned pipeline configuration,
// so tuned and legacy plans for the same workload never alias. Fleet
// device signatures carry the same marker, which keeps work stealing
// plan-affine across tuned fleets.
func cacheKey(job Job, cfg runtime.Config, tuned bool) (string, error) {
	base := job.Key
	if base == "" {
		base = job.Workload
	}
	if base == "" {
		return "", fmt.Errorf("serve: job names neither a workload nor a key")
	}
	key := fmt.Sprintf("%s|%s|%s", base, cfg.MIC.Name, cfg.CPU.Name)
	if tuned {
		key += "|tuned"
	}
	return key, nil
}

// planFor returns the plan for a job, building it on first use. The cached
// return reports whether the plan (or an in-flight build of it) already
// existed. mode is the engine mode of the asking batch; a build that
// compiles the final source for the VM anyway keeps that compile.
func (pl *Planner) planFor(job Job, cfg runtime.Config, mode string) (plan *Plan, cached bool, err error) {
	ct := pl.costTuner()
	key, err := cacheKey(job, cfg, ct != nil)
	if err != nil {
		return nil, false, err
	}
	pl.mu.Lock()
	if e, ok := pl.plans[key]; ok {
		pl.hits++
		e.hits++
		pl.mu.Unlock()
		<-e.ready
		return e.plan, true, e.err
	}
	e := &planEntry{ready: make(chan struct{})}
	if pl.plans == nil {
		pl.plans = map[string]*planEntry{}
	}
	pl.plans[key] = e
	pl.misses++
	pl.mu.Unlock()

	// Build outside the lock; errors are cached too — plan building is
	// deterministic, so a failed key would fail identically on retry.
	e.plan, e.err = pl.build(ct, key, job, cfg, mode)
	if e.plan != nil {
		pl.mu.Lock()
		pl.probes += int64(e.plan.TuneProbes)
		pl.mu.Unlock()
	}
	close(e.ready)
	return e.plan, false, e.err
}

// program is a job resolved once: the MiniC program a plan serves and
// what building the plan needs to know about it.
type program struct {
	name    string // the tuner's workload key
	src     string
	setup   func(*interp.Program) error
	outputs []string
	// probeCfg is the platform measured runs use: tracing off, and the
	// workload's own CPU thread count.
	probeCfg runtime.Config
	// optimize is false for inline source served as written; climb
	// reports whether the untuned build climbs the block count, and
	// baseSpec is the spec its baseline runs under.
	optimize bool
	climb    bool
	baseSpec string
}

// resolve looks a job up once. Registry workloads serve their own source,
// setup and outputs, and climb only when they stream; their baseline is
// regularized when the workload needs regularization to stream. Inline
// jobs serve the job's own program and, when optimized, always climb.
func resolve(job Job, cfg runtime.Config) (program, error) {
	cfg.DisableTrace = true
	if job.Source != "" {
		return program{
			name:     job.Key,
			src:      job.Source,
			setup:    job.Setup,
			outputs:  append([]string(nil), job.Outputs...),
			probeCfg: cfg,
			optimize: job.Optimize,
			climb:    true,
		}, nil
	}
	b, err := workloads.Get(job.Workload)
	if err != nil {
		return program{}, err
	}
	if b.SharedMem {
		return program{}, fmt.Errorf("serve: %s is a shared-memory benchmark; the scheduler serves MiniC offload programs", b.Name)
	}
	if b.CPUThreads > 0 {
		cfg.CPUThreads = b.CPUThreads
	}
	p := program{
		name:     job.Key,
		src:      b.Source,
		setup:    b.Setup,
		outputs:  append([]string(nil), b.Outputs...),
		probeCfg: cfg,
		optimize: true,
		climb:    b.Has("streaming"),
	}
	if p.name == "" {
		p.name = b.Name
	}
	if b.Has("regularization") {
		p.baseSpec = "regularize"
	}
	return p, nil
}

// build constructs a plan. Inline source without Optimize is served as
// written (the plan still validates it compiles, and keeps a VM compile
// as the plan's executable). With the cost-model tuner on, the tuner
// picks the whole configuration and the winner compiles behind a tune
// stage, so the decision lands in the plan's remark trail. Otherwise the
// full COMP pipeline runs at a block count climbed by measurement —
// measuring what will be served. planFor builds each key once, so the
// climb needs no cache of its own.
func (pl *Planner) build(ct *tune.Tuner, key string, job Job, cfg runtime.Config, mode string) (*Plan, error) {
	p, err := resolve(job, cfg)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Key: key, Source: p.src, Outputs: p.outputs, setup: p.setup}
	switch {
	case !p.optimize && mode == vm.ExecVM:
		x := pl.compile(key, p.src)
		if x.err != nil {
			return nil, fmt.Errorf("serve: plan %s: %w", key, x.err)
		}
		plan.exec = &x
	case !p.optimize:
		pl.noteCompile(key, mode)
		if _, err := interp.Compile(p.src); err != nil {
			return nil, fmt.Errorf("serve: plan %s: %w", key, err)
		}
	case ct != nil:
		d, err := core.TuneSource(ct, p.name, p.src, p.probeCfg, p.setup)
		if err != nil {
			return nil, fmt.Errorf("serve: plan %s: %w", key, err)
		}
		res, err := core.OptimizeTuned(p.src, &d.TuneDecision)
		if err != nil {
			return nil, fmt.Errorf("serve: plan %s optimize: %w", key, err)
		}
		plan.Source, plan.Remarks = res.Source(), res.Report.Remarks
		plan.Blocks, plan.TuneProbes, plan.Tuned = d.Blocks, d.Probes, &d.TuneDecision
	default:
		opt := core.DefaultOptions()
		if p.climb {
			m, err := core.NewMeasurer(p.src, p.probeCfg, p.setup)
			if err != nil {
				return nil, fmt.Errorf("serve: plan %s: %w", key, err)
			}
			choice, _, err := m.ClimbBlocks(p.baseSpec)
			if err != nil {
				return nil, fmt.Errorf("serve: plan %s tuning: %w", key, err)
			}
			opt.Blocks, plan.TuneProbes = choice.Blocks, choice.Probes
		}
		res, err := core.Optimize(p.src, opt)
		if err != nil {
			return nil, fmt.Errorf("serve: plan %s optimize: %w", key, err)
		}
		plan.Source, plan.Remarks, plan.Blocks = res.Source(), res.Report.Remarks, opt.Blocks
	}
	return plan, nil
}

// executable returns the plan's VM code, compiling it on first use: once
// per plan, whichever server or fleet device asks.
func (pl *Planner) executable(plan *Plan) executable {
	plan.execMu.Lock()
	defer plan.execMu.Unlock()
	if plan.exec == nil {
		x := pl.compile(plan.Key, plan.Source)
		plan.exec = &x
	}
	return *plan.exec
}

// compile compiles a plan's source for the VM and keeps only what
// requests need to run it.
func (pl *Planner) compile(key, src string) executable {
	pl.noteCompile(key, vm.ExecVM)
	p, err := interp.CompileWith(src, vm.Factory)
	if err != nil {
		return executable{err: err}
	}
	if p.Engine() == nil {
		return executable{}
	}
	return executable{layout: p.Layout(), engine: p.Engine()}
}

// noteCompile reports one compile of a plan's source to the test hook.
func (pl *Planner) noteCompile(key, mode string) {
	if pl.testCompiled != nil {
		pl.testCompiled(key, mode)
	}
}
