package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/engine"
	"comp/internal/tune"
)

// Each plan-cold round deals the registry programs of coldRegistry and
// coldGenerated generated programs once each, in shuffled order. Alone,
// one cold request costs about 0.1, 0.19 and 0.24 s for nn, dedup and
// srad, 0.45–0.55 s for bfs, kmeans and blackscholes, and 4–100 ms for a
// generated program, growing with its region count (1 to coldGenSizes).
// Thirty-nine generated programs make a round of 45 ops in about 3.9 s, so
// a 20 s run gets the 100 samples p90 needs on a host running up to twice
// as slow (on a slower one the loop runs on past 20 s), and p90 falls
// inside dedup's share of the ops, not on a step between two programs.
// streamcluster, cfd and cg are left out: one cold tune of each costs
// 8–30 s.
const (
	coldGenerated = 39
	coldGenSizes  = 12
	coldGenN      = 256
)

// coldRegistry are the registry programs every round deals.
var coldRegistry = []string{"nn", "dedup", "srad", "bfs", "kmeans", "blackscholes"}

// planColdBench is the plan-cold workload: a closed loop, one client, each
// op the first request for a never-seen key sent to a fresh tuning server
// with an empty model — time to first response.
type planColdBench struct {
	registry map[string]*program
	gens     []*program
	rng      *rand.Rand
	deck     []*program
	seq      int // keys issued
	// served sums the servers' counters over the untraced timed ops.
	served serveCounts
	// answers and decisions record each program's output digests and tuned
	// makespans, keyed by program name.
	answers map[string]map[uint64]int
	tuned   map[string]int64
	// planSrc is each program's plan source from the traced ops.
	planSrc map[string]string
	// diverged counts ops whose tuned makespan differed from the
	// program's first; predErr describes every decision.
	diverged int
	predErr  []float64
	// probes is each program's tuning probes, from its first decision.
	probes map[string]int
	log    io.Writer
}

func setupPlanCold(seed int64, log io.Writer) (instance, error) {
	b := &planColdBench{registry: map[string]*program{}, rng: rand.New(rand.NewSource(seed)),
		answers: map[string]map[uint64]int{}, tuned: map[string]int64{}, planSrc: map[string]string{},
		probes: map[string]int{}, log: log}
	for _, name := range coldRegistry {
		p, err := registryProgram(name)
		if err != nil {
			return nil, err
		}
		// Sent inline, so the server applies no per-workload thread count.
		p.cpuThreads = 0
		b.registry[name] = p
	}
	for j := 0; j < coldGenerated; j++ {
		regions := 1 + j*(coldGenSizes-1)/(coldGenerated-1)
		p, err := generatedProgram(fmt.Sprintf("gen%02d", j), generate(b.rng.Int63(), regions, coldGenN))
		if err != nil {
			return nil, err
		}
		b.gens = append(b.gens, p)
	}
	// Warm up with one cold request, so lazy set-up is not timed.
	if _, err := b.coldOp(b.registry["nn"], "warmup"); err != nil {
		return nil, err
	}
	return b, nil
}

// next deals the next program, starting a fresh shuffled round when the
// current one is used up.
func (b *planColdBench) next() *program {
	if len(b.deck) == 0 {
		b.deck = append([]*program(nil), b.gens...)
		for _, name := range coldRegistry {
			b.deck = append(b.deck, b.registry[name])
		}
		b.rng.Shuffle(len(b.deck), func(i, j int) { b.deck[i], b.deck[j] = b.deck[j], b.deck[i] })
	}
	p := b.deck[0]
	b.deck = b.deck[1:]
	return p
}

// coldResult is what one cold request answered.
type coldResult struct {
	outputs map[string][]float64
	d       pass.TuneDecision
	// counts is the server's counters after the request (untraced ops).
	counts serveCounts
}

// coldOp is the untraced op: a fresh tuning server and one request.
func (b *planColdBench) coldOp(p *program, key string) (coldResult, error) {
	srv, err := serve.New(serve.Config{Tune: true})
	if err != nil {
		return coldResult{}, err
	}
	resp, err := srv.Do(serve.Job{Key: key, Source: p.src, Setup: p.setup, Outputs: p.outputs, Optimize: true})
	srv.Close()
	if err != nil {
		return coldResult{}, err
	}
	plans := srv.Planner().Explain()
	if len(plans) != 1 || plans[0].Tuned == nil {
		return coldResult{}, fmt.Errorf("%s: server built %d plans, want one tuned plan", key, len(plans))
	}
	return coldResult{outputs: resp.Outputs, d: *plans[0].Tuned, counts: countServer(srv.Report())}, nil
}

// tracedColdOp is the same request rebuilt from public parts, with a span
// around each layer call: core.TuneSource as tune.Extract, a baseline
// probe and tune.Tuner.Tune whose Measure runs core.TunedRun; then
// core.OptimizeTuned; then the server's compile and scheduler run.
func (b *planColdBench) tracedColdOp(sc scope, p *program, key string) (coldResult, error) {
	cfg := runtime.DefaultConfig()
	cfg.DisableTrace = true
	plan := sc.begin("serve.plan")
	d, src, err := tracedTune(plan, p, key, cfg)
	plan.end()
	if err != nil {
		return coldResult{}, err
	}
	b.planSrc[p.name] = src
	run := sc.begin("serve.run")
	defer run.end()
	prog, err := tracedCompile(run, src)
	if err != nil {
		return coldResult{}, err
	}
	s := run.begin("runtime.run")
	err = scheduleOne(prog, p, cfg, serveStreams)
	s.end()
	if err != nil {
		return coldResult{}, err
	}
	out, err := collect(prog, p.outputs)
	return coldResult{outputs: out, d: d}, err
}

// tracedTune builds a tuned plan the way the serving layer does and
// returns the decision and the plan's source.
func tracedTune(sc scope, p *program, key string, cfg runtime.Config) (pass.TuneDecision, string, error) {
	s := sc.begin("minic.parse")
	f, err := minic.Parse(p.src)
	s.end()
	if err != nil {
		return pass.TuneDecision{}, "", err
	}
	s = sc.begin("minic.check")
	err = minic.Check(f).Err()
	s.end()
	if err != nil {
		return pass.TuneDecision{}, "", err
	}
	s = sc.begin("tune.extract")
	feats, err := tune.Extract(f)
	s.end()
	if err != nil {
		return pass.TuneDecision{}, "", err
	}
	probe := func(sc scope, c tune.Config) (runtime.Result, error) {
		ps := sc.begin("tune.probe")
		defer ps.end()
		src := p.src
		if c.Spec != "" {
			var err error
			src, err = tracedOptimize(ps, p.src, c.Spec, pass.Config{Blocks: c.Blocks, ReduceMemory: true, Persistent: true})
			if err != nil {
				return runtime.Result{}, err
			}
		}
		prog, err := tracedCompile(ps, src)
		if err != nil {
			return runtime.Result{}, err
		}
		rs := ps.begin("runtime.run")
		defer rs.end()
		return runtime.RunWithSetup(prog, cfg, p.setup)
	}
	base, err := probe(sc, tune.Config{})
	if err != nil {
		return pass.TuneDecision{}, "", fmt.Errorf("baseline: %w", err)
	}
	s = sc.begin("tune.tune")
	d, err := (&tune.Tuner{Model: tune.NewModel()}).Tune(tune.Request{
		Key:      key,
		Workload: feats,
		Baseline: tune.BaselineFromStats(base.Stats, cfg.MIC.LaunchOverhead),
		Platform: cfg,
		Measure: func(c tune.Config) (engine.Duration, error) {
			res, err := probe(s, c)
			return res.Stats.Time, err
		},
	})
	s.end()
	if err != nil {
		return pass.TuneDecision{}, "", err
	}
	src, err := tracedOptimizeTuned(sc, p.src, &d.TuneDecision)
	return d.TuneDecision, src, err
}

func (b *planColdBench) timed(d time.Duration, tr *tracer, ph *phase) error {
	b.deck = nil // rounds start with the phase
	loop := func() error {
		start := time.Now()
		for op := 0; ph.running(start, d); op++ {
			p := b.next()
			key := fmt.Sprintf("%s#%d", p.name, b.seq)
			b.seq++
			t0 := ph.begin()
			var res coldResult
			var err error
			if tr == nil {
				res, err = b.coldOp(p, key)
			} else {
				res, err = b.tracedColdOp(tr.root(op, 0), p, key)
			}
			lat := time.Since(t0)
			if err != nil {
				ph.fail()
				fmt.Fprintf(b.log, "plan-cold %s: %v\n", key, err)
			} else {
				ph.done(lat)
				b.record(p, res)
				b.served = b.served.plus(res.counts)
			}
			if len(b.deck) == 0 {
				ph.endRound()
			}
		}
		return nil
	}
	if tr == nil {
		return loop()
	}
	return withoutDefaultEngine(loop)
}

// record keeps an answer for the oracle and checks that the program tuned
// to the same makespan as before.
func (b *planColdBench) record(p *program, res coldResult) {
	if b.answers[p.name] == nil {
		b.answers[p.name] = map[uint64]int{}
	}
	b.answers[p.name][hashOutputs(res.outputs)]++
	if prev, ok := b.tuned[p.name]; ok && prev != res.d.MeasuredNs {
		b.diverged++
	} else if !ok {
		b.tuned[p.name] = res.d.MeasuredNs
		b.probes[p.name] = res.d.Probes
	}
	if res.d.PredictedNs > 0 && res.d.MeasuredNs > 0 {
		r := float64(res.d.PredictedNs) / float64(res.d.MeasuredNs)
		b.predErr = append(b.predErr, math.Max(r, 1/r))
	}
}

// decompose times VM execution alone, on the null backend, for the plan
// of each program the traced ops served; the traced op itself already
// runs every other layer call.
func (b *planColdBench) decompose(tr *tracer) error {
	all := b.programs()
	return withoutDefaultEngine(func() error {
		op := 0
		for name, src := range b.planSrc {
			p := all[name]
			sc := tr.root(op, 0)
			op++
			prog, err := tracedCompile(sc, src)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if _, err := tracedExec(sc, prog, p.setup, p.outputs); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	})
}

func (b *planColdBench) programs() map[string]*program {
	all := map[string]*program{}
	for name, p := range b.registry {
		all[name] = p
	}
	for _, p := range b.gens {
		all[p.name] = p
	}
	return all
}

// layers reports the servers' counters over the untraced timed ops, as the
// traced op rebuilds the request from public parts without a server, and
// the tuning probes per program, which do not depend on how often each
// program was dealt.
func (b *planColdBench) layers(*tracer, *phase) map[string]float64 {
	m := b.served.metrics()
	probes := make([]float64, 0, len(b.probes))
	for _, n := range b.probes {
		probes = append(probes, float64(n))
	}
	m["tune.probes_per_op"] = mean(probes)
	return m
}

func (b *planColdBench) check() (float64, int, error) {
	wrong := b.diverged
	all := b.programs()
	for name, counts := range b.answers {
		want, err := all[name].want()
		if err != nil {
			return 0, 0, err
		}
		h := hashOutputs(want)
		for got, n := range counts {
			if got != h {
				wrong += n
				fmt.Fprintf(b.log, "plan-cold %s: %d answers differ from the oracle\n", name, n)
			}
		}
	}
	var speedups []float64
	for _, name := range coldRegistry {
		p := b.registry[name]
		if _, ok := b.tuned[name]; !ok {
			// Not dealt in a short run: tune it now, untimed.
			res, err := b.coldOp(p, name+"#check")
			if err != nil {
				return 0, 0, err
			}
			b.tuned[name] = res.d.MeasuredNs
		}
		naive, _, err := p.simulate(p.src, runtime.DefaultConfig())
		if err != nil {
			return 0, 0, err
		}
		speedups = append(speedups, float64(naive)/float64(b.tuned[name]))
	}
	if b.diverged > 0 {
		fmt.Fprintf(b.log, "plan-cold: %d ops tuned to a different makespan than their program's first\n", b.diverged)
	}
	fmt.Fprintf(b.log, "plan-cold: cost-model prediction error geomean %.2fx over %d decisions\n",
		geomean(b.predErr), len(b.predErr))
	return geomean(speedups), wrong, nil
}

func (b *planColdBench) close() {}
