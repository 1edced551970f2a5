package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"comp/internal/vm"
)

// metricDef declares one reported metric. exact marks a metric that is a
// pure function of the code and the seed: every run of one commit at one
// seed reports it identically. byWorkload marks a per-layer metric that
// only the workloads crossing its layer measure; it reads 0 on the others.
type metricDef struct {
	name, unit string
	exact      bool
	byWorkload bool
}

// endToEnd are the metrics of an untraced run, per workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "op_p50_ms", unit: "ms"},
	{name: "op_p90_ms", unit: "ms"},
	{name: "ops_per_s", unit: "1/s"},
	{name: "cpu_ms_per_op", unit: "ms"},
	{name: "alloc_kb_per_op", unit: "KiB"},
	{name: "rss_mb", unit: "MiB"},
	{name: "sim_speedup_geomean", unit: "x", exact: true},
}

// perLayer are the metrics of a traced run: the median self time of each
// stack layer's calls, every traced call's share of the traced time, then
// counts taken at the same boundaries.
var perLayer = append(layerDefs(),
	metricDef{name: "pass.applied_per_op", unit: "count", exact: true},
	metricDef{name: "pass.skipped_per_op", unit: "count", exact: true},
	metricDef{name: "pass.out_kb", unit: "KiB", exact: true},
	metricDef{name: "serve.batch_mean", unit: "count", byWorkload: true},
	metricDef{name: "serve.plan_hit_ratio", unit: "ratio", byWorkload: true},
	metricDef{name: "serve.overhead_frac", unit: "ratio", byWorkload: true},
	metricDef{name: "tune.probes_per_op", unit: "count", byWorkload: true, exact: true},
	metricDef{name: "fleet.stolen", unit: "count", byWorkload: true, exact: true},
	metricDef{name: "fleet.rerouted", unit: "count", byWorkload: true, exact: true},
	metricDef{name: "fleet.shed", unit: "count", byWorkload: true, exact: true},
	metricDef{name: "go.gc_cpu_frac", unit: "ratio"},
	metricDef{name: "go.gc_per_op", unit: "count"},
	metricDef{name: "loadgen.lag_p90_ms", unit: "ms"},
	metricDef{name: "trace.overhead_frac", unit: "ratio"},
)

func layerDefs() []metricDef {
	var defs []metricDef
	for _, name := range stackLayers {
		defs = append(defs, metricDef{name: name, unit: "us"})
	}
	for _, name := range append(append([]string(nil), stackLayers...), workloadCalls...) {
		defs = append(defs, metricDef{name: name + ".share", unit: "ratio"})
	}
	return defs
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phase is what one timed phase observed: every op's latency, and the
// host cost of each complete round. A round is the workload's unit of
// repetition — every program of the mix once, or one whole replay — so
// rounds cost the same work and their median shrugs off a burst of load
// on the host.
type phase struct {
	// lat holds one latency in ms per attempted op. A failed op counts as
	// missing every latency limit: +Inf.
	lat       []float64
	attempted int
	failed    int // ops answered with an error, shed, or expired
	rounds    []hostCost
	// lag holds how far, in ms, the load generator ran behind each op's due
	// time. A closed loop's op is due when the previous one ends.
	lag  []float64
	last time.Time // when a closed loop's previous op ended
	// probe samples the host's speed between ops; probed is the time it
	// took in the current round, which the round's cost leaves out.
	probe  *speedProbe
	probed time.Duration
	// minOps is how many ops a closed loop attempts even past its
	// duration: the samples its percentiles need.
	minOps int

	mark     hostSample // start of the current round
	roundOps int
}

func newPhase() *phase { return &phase{probe: &speedProbe{}, mark: sampleHost()} }

// probeHost samples the host's speed when a sample is due. A closed loop
// calls it between ops.
func (p *phase) probeHost() { p.probed += p.probe.maybe() }

// speedFactor scales the phase's times to the reference host. A phase too
// short to have sampled the reference kernel samples it once now.
func (p *phase) speedFactor() float64 {
	if len(p.probe.us[0]) == 0 {
		p.probe.sample()
	}
	return p.probe.factor()
}

// begin starts a closed loop's op, after a speed sample if one is due, and
// returns its start time.
func (p *phase) begin() time.Time {
	if !p.last.IsZero() {
		p.lag = append(p.lag, ms(time.Since(p.last)))
	}
	p.probeHost()
	return time.Now()
}

// done records a completed op.
func (p *phase) done(lat time.Duration) {
	p.attempted++
	p.lat = append(p.lat, ms(lat))
	p.roundOps++
	p.last = time.Now()
}

// fail records an op answered with an error.
func (p *phase) fail() {
	p.attempted++
	p.failed++
	p.lat = append(p.lat, math.Inf(1))
	p.last = time.Now()
}

// running reports whether a closed loop that started at start begins
// another op: for d, and past d, up to three times as long, until it has
// attempted minOps ops, so that a slow host does not leave p90 short of
// samples.
func (p *phase) running(start time.Time, d time.Duration) bool {
	elapsed := time.Since(start)
	return elapsed < d || (p.attempted < p.minOps && elapsed < 3*d)
}

// completed returns how many ops completed without error.
func (p *phase) completed() int { return p.attempted - p.failed }

// endRound closes the current round. Its cost leaves out the speed
// samples taken between its ops.
func (p *phase) endRound() {
	now := sampleHost()
	c := p.mark.costUntil(now, p.roundOps)
	c.wall -= p.probed
	c.cpu -= p.probed
	p.rounds = append(p.rounds, c)
	p.mark, p.roundOps, p.probed = now, 0, 0
}

// instance is one workload, set up and ready to measure.
type instance interface {
	// timed runs the workload's ops for d, recording them in ph. With a
	// tracer it runs the traced variant, with a span around each layer
	// call.
	timed(d time.Duration, tr *tracer, ph *phase) error
	// decompose, in traced runs, sends requests through the same layer
	// calls the program makes internally, one span each.
	decompose(tr *tracer) error
	// layers returns the byWorkload per-layer metrics of the layers the
	// workload crosses, from the traced phase and its spans.
	layers(tr *tracer, traced *phase) map[string]float64
	// check holds every op's outputs to the oracle. It returns the geometric
	// mean, over the registry programs the workload serves, of naive over
	// optimized simulated makespan, and how many ops had wrong outputs.
	check() (speedup float64, wrong int, err error)
	close()
}

// workload names a traffic mix and how to set it up from a seed.
type workload struct {
	name  string
	setup func(seed int64, log io.Writer) (instance, error)
	// overheadByRate measures the tracing overhead by throughput rather
	// than op latency, for a workload whose op latency is mostly waiting.
	overheadByRate bool
	// openLoop marks a workload whose schedule, not the host, sets its
	// throughput, so ops_per_s is not scaled by the host's speed.
	openLoop bool
}

var allWorkloads = []workload{
	{name: "compile", setup: setupCompile},
	{name: "serve-hot", setup: setupServeHot, openLoop: true},
	{name: "plan-cold", setup: setupPlanCold},
	{name: "fleet-replay", setup: setupFleet, overheadByRate: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
}

func workloadNames() string {
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	traceOut string // Chrome trace file for traced runs ("" = none)
	// started is when the process started; setup_s runs from it.
	started time.Time
	// setups is how many set-ups setup_s is the median of: this process's
	// own, then each further one in a fresh process of this program.
	setups int
	// minTail is how many samples must lie beyond a reported percentile.
	minTail int
}

// prepareProcess sets the process up the way compserve does: two cores and
// the bytecode VM as the default engine.
func prepareProcess() error {
	runtime.GOMAXPROCS(2)
	return vm.SetExecMode(vm.ExecVM)
}

// withoutDefaultEngine runs f with the process default engine cleared, so
// the traced calls compile the VM module in vm.Attach alone.
func withoutDefaultEngine(f func() error) error {
	vm.Uninstall()
	defer vm.Install()
	return f()
}

// measure sets up and runs one workload and returns its result.
func measure(cfg runConfig, log io.Writer) (result, error) {
	if err := prepareProcess(); err != nil {
		return result{}, err
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	inst, err := w.setup(cfg.seed, log)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	own := timeSetup(cfg.started)
	defer inst.close()

	res := result{Metrics: map[string]metricValue{}}
	var ph *phase
	if cfg.trace {
		ph, err = measureTraced(cfg, w, inst, res.Metrics, log)
	} else {
		ph, err = measureUntraced(cfg, w, inst, res.Metrics, log)
	}
	if err != nil {
		return result{}, err
	}
	speedup, wrong, err := inst.check()
	if err != nil {
		return result{}, fmt.Errorf("%s check: %w", cfg.workload, err)
	}
	if !cfg.trace {
		res.Metrics["sim_speedup_geomean"] = metricValue{Value: speedup}
		setups, err := coldSetups(cfg, own, log)
		if err != nil {
			return result{}, err
		}
		raw, scaled := make([]float64, len(setups)), make([]float64, len(setups))
		for i, s := range setups {
			raw[i], scaled[i] = s.raw, s.scaled
		}
		res.Metrics["setup_s"] = metricValue{Value: median(scaled)}
		fmt.Fprintf(log, "%s: set-ups from process start %.3f s, scaled to the reference host %.3f s\n", cfg.workload, raw, scaled)
	}
	res.Attempted = ph.attempted
	res.Failed = ph.failed + wrong
	res.Correct = wrong == 0
	fmt.Fprintf(log, "%s seed %d: %d ops attempted, %d failed, %d wrong outputs; %d latency samples, %d rounds\n",
		cfg.workload, cfg.seed, ph.attempted, ph.failed, wrong, len(ph.lat), len(ph.rounds))
	if p := highestPercentile(len(ph.lat)); p > 0 {
		fmt.Fprintf(log, "%s: highest percentile the %d samples support: p%g = %.3f ms before scaling\n",
			cfg.workload, len(ph.lat), p, percentile(ph.lat, p))
	}
	return res, finish(res.Metrics, cfg.trace)
}

// setupTime is one set-up's seconds from process start, as measured and
// scaled to the reference host by kernel samples taken right after it.
type setupTime struct{ raw, scaled float64 }

func timeSetup(started time.Time) setupTime {
	raw := time.Since(started).Seconds()
	p := &speedProbe{}
	for i := 0; i < refSetupSamples; i++ {
		p.sample()
	}
	return setupTime{raw: raw, scaled: raw * p.factor()}
}

// coldSetups returns this process's set-up time followed by cfg.setups-1
// more, each measured by a fresh process of this program from its start to
// the end of its set-up, so no set-up finds another's caches warm. They
// run one at a time, after the timed phase.
func coldSetups(cfg runConfig, own setupTime, log io.Writer) ([]setupTime, error) {
	times := []setupTime{own}
	if cfg.setups <= 1 {
		return times, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for len(times) < cfg.setups {
		cmd := exec.Command(exe, "-setup-only", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed))
		cmd.Stderr = log
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up in a fresh process: %w", err)
		}
		var s setupTime
		if _, err := fmt.Sscan(string(out), &s.raw, &s.scaled); err != nil {
			return nil, fmt.Errorf("set-up in a fresh process printed %q: %w", out, err)
		}
		times = append(times, s)
	}
	return times, nil
}

// setupOnly sets a workload up, as the first part of a run does, and
// prints the seconds from process start to the end of set-up, as measured
// and scaled to the reference host.
func setupOnly(workload string, seed int64, started time.Time, stdout, log io.Writer) error {
	if err := prepareProcess(); err != nil {
		return err
	}
	w, err := findWorkload(workload)
	if err != nil {
		return err
	}
	inst, err := w.setup(seed, log)
	if err != nil {
		return fmt.Errorf("%s setup: %w", workload, err)
	}
	s := timeSetup(started)
	inst.close()
	_, err = fmt.Fprintf(stdout, "%.9f %.9f\n", s.raw, s.scaled)
	return err
}

// measureUntraced runs the timed phase and fills the end-to-end metrics
// it determines. Throughput, CPU and allocation per op are medians over
// complete rounds, or the whole phase when no round completed. Times and
// throughput are scaled to the reference host by the phase's samples of
// the reference kernel.
func measureUntraced(cfg runConfig, w workload, inst instance, m map[string]metricValue, log io.Writer) (*phase, error) {
	stop := make(chan struct{})
	var rss []float64
	var rssErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rss, rssErr = sampleRSS(stop)
	}()
	ph := newPhase()
	ph.minOps = samplesFor(90, cfg.minTail)
	start := ph.mark
	err := inst.timed(cfg.duration, nil, ph)
	whole := start.costUntil(sampleHost(), ph.completed())
	whole.cpu -= ph.probe.spent
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if rssErr != nil {
		return nil, rssErr
	}
	if ph.completed() == 0 {
		return nil, fmt.Errorf("%s: no op completed in %v", cfg.workload, cfg.duration)
	}
	p50, err := tailPercentile(ph.lat, 50, cfg.minTail)
	if err != nil {
		return nil, fmt.Errorf("op_p50_ms: %w", err)
	}
	p90, err := tailPercentile(ph.lat, 90, cfg.minTail)
	if err != nil {
		return nil, fmt.Errorf("op_p90_ms: %w", err)
	}
	rounds := ph.rounds
	if len(rounds) == 0 {
		rounds = []hostCost{whole}
	}
	var rates, cpus, allocs []float64
	for _, r := range rounds {
		if r.ops == 0 {
			continue
		}
		ops := float64(r.ops)
		rates = append(rates, r.rate())
		cpus = append(cpus, ms(r.cpu)/ops)
		allocs = append(allocs, r.allocKB/ops)
	}
	rate, cpu := median(rates), median(cpus)
	f := ph.speedFactor()
	fmt.Fprintf(log, "%s: reference kernel %.1f us (nominal %d us): times scaled by %.4f from p50 %.4f ms, p90 %.4f ms, %.4f ms CPU per op, %.4f ops/s\n",
		cfg.workload, ph.probe.kernelUs(), refNominalUs, f, p50, p90, cpu, rate)
	if !w.openLoop {
		rate /= f
	}
	m["op_p50_ms"] = metricValue{Value: p50 * f}
	m["op_p90_ms"] = metricValue{Value: p90 * f}
	m["ops_per_s"] = metricValue{Value: rate}
	m["cpu_ms_per_op"] = metricValue{Value: cpu * f}
	m["alloc_kb_per_op"] = metricValue{Value: median(allocs)}
	m["rss_mb"] = metricValue{Value: median(rss)}
	return ph, nil
}

// measureTraced runs half the duration untraced and half traced, then the
// decomposition, and fills the per-layer metrics. The untraced half is the
// baseline for the tracing overhead.
func measureTraced(cfg runConfig, w workload, inst instance, m map[string]metricValue, log io.Writer) (*phase, error) {
	plain := newPhase()
	plainStart := plain.mark
	if err := inst.timed(cfg.duration/2, nil, plain); err != nil {
		return nil, err
	}
	plainCost := plainStart.costUntil(sampleHost(), plain.completed())
	tr := newTracer()
	traced := newPhase()
	start := traced.mark
	if err := inst.timed(cfg.duration/2, tr, traced); err != nil {
		return nil, err
	}
	cost := start.costUntil(sampleHost(), traced.completed())
	if plain.completed() == 0 || traced.completed() == 0 {
		return nil, fmt.Errorf("%s: no op completed in a half of %v", cfg.workload, cfg.duration)
	}
	if len(plain.lag)+len(traced.lag) == 0 {
		return nil, fmt.Errorf("%s: the traced run sent fewer than two ops", cfg.workload)
	}
	if err := inst.decompose(tr); err != nil {
		return nil, fmt.Errorf("%s decompose: %w", cfg.workload, err)
	}
	stats := tr.summarize()
	for _, name := range stackLayers {
		st := stats[name]
		if st == nil {
			return nil, fmt.Errorf("%s: traced run made no %s call", cfg.workload, name)
		}
		m[name] = metricValue{Value: median(st.self)}
	}
	for _, name := range append(append([]string(nil), stackLayers...), workloadCalls...) {
		share := 0.0
		if st := stats[name]; st != nil {
			share = st.share
		}
		m[name+".share"] = metricValue{Value: share}
	}
	if tr.passRuns == 0 {
		return nil, fmt.Errorf("%s: traced run made no pass.run call", cfg.workload)
	}
	runs := float64(tr.passRuns)
	m["pass.applied_per_op"] = metricValue{Value: float64(tr.applied) / runs}
	m["pass.skipped_per_op"] = metricValue{Value: float64(tr.skipped) / runs}
	m["pass.out_kb"] = metricValue{Value: float64(tr.outBytes) / 1024 / runs}
	for _, d := range perLayer {
		if d.byWorkload {
			m[d.name] = metricValue{}
		}
	}
	for name, v := range inst.layers(tr, traced) {
		m[name] = metricValue{Value: v}
	}
	m["go.gc_cpu_frac"] = metricValue{Value: cost.gcCPUFrac}
	m["go.gc_per_op"] = metricValue{Value: float64(cost.gcs) / float64(traced.completed())}
	m["loadgen.lag_p90_ms"] = metricValue{Value: percentile(append(plain.lag, traced.lag...), 90)}
	// Each half is scaled by its own samples of the reference kernel, so a
	// change in the host's speed between the halves does not read as
	// tracing overhead.
	fp, ft := plain.speedFactor(), traced.speedFactor()
	overhead := median(traced.lat)*ft/(median(plain.lat)*fp) - 1
	if w.overheadByRate {
		overhead = (plainCost.rate()/fp)/(cost.rate()/ft) - 1
	}
	m["trace.overhead_frac"] = metricValue{Value: overhead}

	tr.printSummary(log)
	if cfg.traceOut != "" {
		if err := writeTrace(tr, cfg.traceOut); err != nil {
			return nil, err
		}
	}
	return &phase{
		attempted: plain.attempted + traced.attempted,
		failed:    plain.failed + traced.failed,
		lat:       append(plain.lat, traced.lat...),
		rounds:    append(plain.rounds, traced.rounds...),
	}, nil
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// finish stamps units on the metrics and checks that exactly the declared
// set is present, each a finite number.
func finish(m map[string]metricValue, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(m) != len(defs) {
		return fmt.Errorf("internal: %d metrics measured, %d declared", len(m), len(defs))
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return fmt.Errorf("internal: metric %s not measured", d.name)
		}
		if math.IsInf(v.Value, 1) && strings.HasPrefix(d.name, "op_") {
			return fmt.Errorf("metric %s is +Inf: too many ops failed for the percentile to be a latency", d.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v.Value)
		}
		m[d.name] = metricValue{Value: v.Value, Unit: d.unit}
	}
	return nil
}
