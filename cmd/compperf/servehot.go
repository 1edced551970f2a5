package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"comp/internal/interp"
	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/metrics"
)

// serveRate is serve-hot's mean arrival rate in requests per second. It is
// lower than the 12 per second first planned: at about 40 ms of host CPU
// per request it keeps the single dispatcher a fifth busy, so latency is
// mostly service time, because queueing multiplies the host's own noise
// (at 6 per second p50 spread twice as far from run to run as at 3). A
// 20 s run still yields the 100 samples p90 needs.
const serveRate = 5

// maxLagMs is how far, at p90, the load generator may run behind its
// schedule before a serve-hot run is invalid: it would then offer less
// load than scheduled. A single late send does not invalidate a run, as
// latency runs from the due time and so already counts it; p90 is also the
// highest percentile a run's 100 sends support.
const maxLagMs = 5

// probeGap is how long before the next send the generator may still take
// a sample of the reference kernel, which takes about 3 ms; at least four
// times the latest sample's duration, on a host slow enough to need it.
const probeGap = 20 * time.Millisecond

// serveStreams and serveQueue shape the server as compserve does.
const (
	serveStreams = 4
	serveQueue   = 64
)

// serveMix is serve-hot's program mix.
var serveMix = []struct {
	name   string
	weight float64
}{{"nn", .4}, {"dedup", .3}, {"srad", .2}, {"bfs", .1}}

// decomposedPerPlan is how many requests per plan a traced run sends
// through the server's layer calls one at a time.
const decomposedPerPlan = 20

// serveHotBench is the serve-hot workload: an open loop against one warm
// server. A generator goroutine enqueues requests at their due times, a
// collector goroutine waits for each answer; latency runs from the due
// time, so a stall also delays every request behind it.
type serveHotBench struct {
	srv   *serve.Server
	progs map[string]*program
	rng   *rand.Rand
	// answers counts each workload's distinct output digests.
	answers map[string]map[uint64]int
	// warm is the server's counters when set-up ended.
	warm serveCounts
	// requestMs holds each program's decomposed request times, in ms.
	requestMs map[string][]float64
	log       io.Writer
}

func setupServeHot(seed int64, log io.Writer) (instance, error) {
	srv, err := serve.New(serve.Config{Streams: serveStreams, QueueDepth: serveQueue, Tune: true})
	if err != nil {
		return nil, err
	}
	b := &serveHotBench{srv: srv, progs: map[string]*program{}, rng: rand.New(rand.NewSource(seed)),
		answers: map[string]map[uint64]int{}, requestMs: map[string][]float64{}, log: log}
	for _, m := range serveMix {
		p, err := registryProgram(m.name)
		if err != nil {
			srv.Close()
			return nil, err
		}
		b.progs[m.name] = p
		b.answers[m.name] = map[uint64]int{}
		// The first request builds and caches the tuned plan.
		if _, err := srv.Do(serve.Job{Workload: m.name}); err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
	}
	b.warm = countServer(srv.Report())
	return b, nil
}

// schedule draws n requests: exactly the mix's share of each program in
// shuffled order, due at the sorted points of n uniform draws over d — a
// Poisson process conditioned on n arrivals.
func (b *serveHotBench) schedule(d time.Duration) ([]string, []time.Duration) {
	n := int(math.Round(serveRate * d.Seconds()))
	var kinds []string
	for i, m := range serveMix {
		c := int(math.Round(m.weight * float64(n)))
		if i == len(serveMix)-1 {
			c = n - len(kinds)
		}
		for j := 0; j < c && len(kinds) < n; j++ {
			kinds = append(kinds, m.name)
		}
	}
	b.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(b.rng.Float64() * float64(d))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return kinds, due
}

func (b *serveHotBench) timed(d time.Duration, tr *tracer, ph *phase) error {
	kinds, offsets := b.schedule(d)
	type sent struct {
		op   int
		name string
		due  time.Time
		t    *serve.Ticket
		err  error
	}
	// One slot per request, so the generator never waits on the collector.
	ch := make(chan sent, len(kinds))
	lag := make([]float64, 0, len(kinds))
	// The generator samples the host's speed while it waits, when the next
	// request is not due for a while.
	probe := &speedProbe{}
	start := time.Now()
	go func() {
		defer close(ch)
		for k, name := range kinds {
			due := start.Add(offsets[k])
			time.Sleep(time.Until(due))
			lag = append(lag, ms(time.Since(due)))
			var s scope
			if tr != nil {
				s = tr.root(k, 0).begin("serve.enqueue")
			}
			t, err := b.srv.Enqueue(serve.Job{Workload: name})
			if tr != nil {
				s.end()
			}
			ch <- sent{op: k, name: name, due: due, t: t, err: err}
			if k+1 < len(kinds) && time.Until(start.Add(offsets[k+1])) > max(probeGap, 4*probe.last) {
				probe.maybe()
			}
		}
	}()
	for s := range ch {
		if s.err != nil {
			ph.fail()
			fmt.Fprintf(b.log, "serve-hot %s: %v\n", s.name, s.err)
			continue
		}
		var sp scope
		if tr != nil {
			sp = tr.root(s.op, 1).begin("serve.wait")
		}
		resp, err := s.t.Wait()
		done := time.Now()
		if tr != nil {
			sp.end()
		}
		if err != nil {
			ph.fail()
			fmt.Fprintf(b.log, "serve-hot %s: %v\n", s.name, err)
			continue
		}
		ph.done(done.Sub(s.due))
		b.answers[s.name][hashOutputs(resp.Outputs)]++
	}
	// The closed channel orders the generator's writes to lag and probe
	// before this.
	ph.lag = append(ph.lag, lag...)
	ph.probe.merge(probe)
	if len(lag) == 0 {
		return nil
	}
	p90 := percentile(lag, 90)
	fmt.Fprintf(b.log, "serve-hot: load generator lag p50 %.3f ms, p90 %.3f ms, max %.3f ms over %d sends\n",
		percentile(lag, 50), p90, percentile(lag, 100), len(lag))
	if p90 > maxLagMs {
		return fmt.Errorf("load generator ran %.3f ms behind schedule at p90, over the %d ms a valid run allows", p90, maxLagMs)
	}
	return nil
}

// decompose rebuilds each cached plan's source from its tuning decision,
// then sends requests through the calls the server makes for each one:
// compile, VM compile, and a scheduler run. VM execution alone is timed
// separately, on the null backend.
func (b *serveHotBench) decompose(tr *tracer) error {
	cfg := runtime.DefaultConfig()
	cfg.DisableTrace = true
	return withoutDefaultEngine(func() error {
		op := 0
		for _, plan := range b.srv.Planner().Explain() {
			p := b.progs[strings.SplitN(plan.Key, "|", 2)[0]]
			if p == nil || plan.Tuned == nil {
				return fmt.Errorf("plan %s has no program or no tuning decision", plan.Key)
			}
			src, err := tracedOptimizeTuned(tr.root(op, 0), p.src, plan.Tuned)
			if err != nil {
				return fmt.Errorf("%s: %w", plan.Key, err)
			}
			for i := 0; i < decomposedPerPlan; i++ {
				op++
				d, err := decomposedRequest(tr.root(op, 0), p, src, cfg, serveStreams)
				if err != nil {
					return fmt.Errorf("%s: %w", plan.Key, err)
				}
				b.requestMs[p.name] = append(b.requestMs[p.name], ms(d))
			}
		}
		return nil
	})
}

// decomposedRequest is one served request as the server runs it — compile
// the plan's source, attach the VM, run a scheduler batch of one — under a
// "request" span, followed by the program's VM execution alone on the null
// backend. It returns the request span's duration.
func decomposedRequest(sc scope, p *program, src string, cfg runtime.Config, streams int) (time.Duration, error) {
	req := sc.begin("request")
	t0 := time.Now()
	prog, err := tracedCompile(req, src)
	if err == nil {
		s := req.begin("runtime.run")
		err = scheduleOne(prog, p, cfg, streams)
		s.end()
	}
	d := time.Since(t0)
	req.end()
	if err != nil {
		return 0, err
	}
	_, err = tracedExec(sc, prog, p.setup, p.outputs)
	return d, err
}

// scheduleOne runs one request as a serving batch of one on a fresh
// scheduler.
func scheduleOne(prog *interp.Program, p *program, cfg runtime.Config, streams int) error {
	sched, err := runtime.NewScheduler(cfg, streams)
	if err != nil {
		return err
	}
	sched.Submit(runtime.Request{Label: "r", Program: prog, Setup: p.setup})
	_, err = sched.Run()
	return err
}

// layers reports the server's counters over every timed phase and the
// serving layer's overhead.
func (b *serveHotBench) layers(_ *tracer, traced *phase) map[string]float64 {
	m := countServer(b.srv.Report()).minus(b.warm).metrics()
	served := map[string]int{}
	for name, counts := range b.answers {
		for _, n := range counts {
			served[name] += n
		}
	}
	m["serve.overhead_frac"] = overheadFrac(b.requestMs, served, traced)
	return m
}

// overheadFrac is the share of the traced phase's mean request latency
// that the calls the server makes for a request, timed one request at a
// time by decompose, do not account for: queueing, dispatch and batching.
// Each program's decomposed request time is weighted by how many of its
// requests were served.
func overheadFrac[K comparable](requestMs map[K][]float64, served map[K]int, traced *phase) float64 {
	sum, n := 0.0, 0
	for k, c := range served {
		if c == 0 || len(requestMs[k]) == 0 {
			continue
		}
		sum += float64(c) * mean(requestMs[k])
		n += c
	}
	if n == 0 {
		return math.NaN()
	}
	return 1 - sum/float64(n)/mean(finite(traced.lat))
}

func (b *serveHotBench) check() (float64, int, error) {
	wrong := 0
	for name, counts := range b.answers {
		want, err := b.progs[name].want()
		if err != nil {
			return 0, 0, err
		}
		h := hashOutputs(want)
		for got, n := range counts {
			if got != h {
				wrong += n
				fmt.Fprintf(b.log, "serve-hot %s: %d answers differ from the oracle\n", name, n)
			}
		}
	}
	var speedups []float64
	for _, plan := range b.srv.Planner().Explain() {
		p := b.progs[strings.SplitN(plan.Key, "|", 2)[0]]
		naive, _, err := p.simulate(p.src, runtime.DefaultConfig())
		if err != nil {
			return 0, 0, err
		}
		speedups = append(speedups, float64(naive)/float64(plan.Tuned.MeasuredNs))
	}
	return geomean(speedups), wrong, nil
}

func (b *serveHotBench) close() { b.srv.Close() }

// serveCounts are the serving layer's counters a run reads per-layer
// metrics from.
type serveCounts struct {
	completed, batches, hits, misses, probes int64
}

func countServer(r metrics.ServerReport) serveCounts {
	return serveCounts{completed: r.Completed, batches: r.Batches, hits: r.PlanHits, misses: r.PlanMisses, probes: r.TuneProbes}
}

func (c serveCounts) plus(o serveCounts) serveCounts {
	return serveCounts{c.completed + o.completed, c.batches + o.batches, c.hits + o.hits, c.misses + o.misses, c.probes + o.probes}
}

func (c serveCounts) minus(o serveCounts) serveCounts {
	return serveCounts{c.completed - o.completed, c.batches - o.batches, c.hits - o.hits, c.misses - o.misses, c.probes - o.probes}
}

// metrics returns the serving layer's per-layer metrics: requests per
// scheduler batch, the plan cache's hit ratio, and tuning probes per
// completed request.
func (c serveCounts) metrics() map[string]float64 {
	m := map[string]float64{}
	if c.batches > 0 {
		m["serve.batch_mean"] = float64(c.completed) / float64(c.batches)
	}
	if lookups := c.hits + c.misses; lookups > 0 {
		m["serve.plan_hit_ratio"] = float64(c.hits) / float64(lookups)
	}
	if c.completed > 0 {
		m["tune.probes_per_op"] = float64(c.probes) / float64(c.completed)
	}
	return m
}
