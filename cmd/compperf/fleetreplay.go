package main

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"comp/internal/fleet"
	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/fault"
)

// The fleet-replay trace: fleetRequests submissions, a step after every
// fleetWindow of them. Exactly fleetNN requests are nn, at seeded
// positions; the rest are tiny inline programs over fleetTinyKeys keys. A
// fault storm hits one device a third of the way in, the device fails
// half way in, and it comes back, without faults, two thirds in.
const (
	fleetRequests = 400
	fleetWindow   = 6
	fleetNN       = fleetRequests / 10
	fleetTinyKeys = 16
	fleetVictim   = "h0/d1"
	// fleetQueue is each device's admission depth; a step drains a whole
	// queue, so every request is answered by the step that follows it.
	fleetQueue = 16
)

// fleetEvent is one entry of the replayed trace.
type fleetEvent struct {
	op     fleet.Op
	job    int // index into fleetBench.jobs, for submissions
	faults fault.Config
}

// fleetBench is the fleet-replay workload: back-to-back replays of one
// seeded trace through the public fleet API on a stepped virtual clock,
// against a plan registry warmed during set-up. An op is one request; its
// latency runs from its Enqueue to its answer, which its device's batch
// gives during the next StepAll.
type fleetBench struct {
	devices []fleet.DeviceConfig
	planner *serve.Planner
	jobs    []serve.Job
	progs   []*program // per job
	events  []fleetEvent
	// makespan is the first complete replay's fleet makespan; every later
	// complete replay must match it.
	makespan int64
	replays  int
	diverged int
	answers  []map[uint64]int // per job
	report   fleetCounts
	// served sums the fleet's serving counters over complete replays, from
	// the planner's as set-up left them.
	served serveCounts
	warm   serveCounts
	// requestMs holds each job's decomposed request times, in ms.
	requestMs map[int][]float64
	log       io.Writer
}

// fleetCounts sums the router's decisions over complete replays.
type fleetCounts struct {
	stolen, rerouted, shed int64
}

func setupFleet(seed int64, log io.Writer) (instance, error) {
	r := rand.New(rand.NewSource(seed))
	b := &fleetBench{devices: fleet.DefaultDevices(2, 2, fleetQueue), planner: serve.NewPlanner(),
		requestMs: map[int][]float64{}, log: log}
	nn, err := registryProgram("nn")
	if err != nil {
		return nil, err
	}
	b.jobs = append(b.jobs, serve.Job{Workload: "nn"})
	b.progs = append(b.progs, nn)
	for k := 0; k < fleetTinyKeys; k++ {
		name := fmt.Sprintf("tiny%02d", k)
		// Four regions take each shape once, so every seed's tiny
		// programs cost the same.
		p, err := generatedProgram(name, generate(r.Int63(), 4, 64))
		if err != nil {
			return nil, err
		}
		b.jobs = append(b.jobs, serve.Job{Key: name, Source: p.src, Outputs: p.outputs, Optimize: true})
		b.progs = append(b.progs, p)
	}
	b.answers = make([]map[uint64]int, len(b.jobs))
	for i := range b.answers {
		b.answers[i] = map[uint64]int{}
	}
	jobs := make([]int, fleetRequests)
	for i := fleetNN; i < fleetRequests; i++ {
		jobs[i] = 1 + r.Intn(fleetTinyKeys)
	}
	r.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	windows := (fleetRequests + fleetWindow - 1) / fleetWindow
	for w := 0; w < windows; w++ {
		for i := w * fleetWindow; i < (w+1)*fleetWindow && i < fleetRequests; i++ {
			b.events = append(b.events, fleetEvent{op: fleet.OpSubmit, job: jobs[i]})
		}
		b.events = append(b.events, fleetEvent{op: fleet.OpStep})
		switch w {
		case windows / 3:
			b.events = append(b.events, fleetEvent{op: fleet.OpFaults, faults: fault.Uniform(seed, 0.3)})
		case windows / 2:
			b.events = append(b.events, fleetEvent{op: fleet.OpFail})
		case 2 * windows / 3:
			b.events = append(b.events, fleetEvent{op: fleet.OpRestore}, fleetEvent{op: fleet.OpFaults})
		}
	}
	// Warm the shared registry: every job's plan on both device classes.
	for _, dc := range b.devices[:2] {
		srv, err := serve.New(serve.Config{Runtime: dc.Runtime, QueueDepth: fleetQueue, Planner: b.planner, Tune: true})
		if err != nil {
			return nil, err
		}
		for i, job := range b.jobs {
			if _, err := srv.Do(job); err != nil {
				srv.Close()
				return nil, fmt.Errorf("warm %s: %w", b.progs[i].name, err)
			}
		}
		srv.Close()
	}
	hits, misses, probes := b.planner.Stats()
	b.warm = serveCounts{hits: hits, misses: misses, probes: probes}
	return b, nil
}

func (b *fleetBench) timed(d time.Duration, tr *tracer, ph *phase) error {
	start := time.Now()
	for time.Since(start) < d {
		if err := b.replay(ph, tr, start.Add(d)); err != nil {
			return err
		}
	}
	return nil
}

// submitted is one admitted request of the current window.
type submitted struct {
	job    int
	device int // the device's position in StepAll's order
	t      *serve.Ticket
	start  time.Time
}

// answered is one request's answer and its latency.
type answered struct {
	job     int
	lat     time.Duration
	outputs map[string][]float64
	err     error
}

// awaitWindow waits, on a goroutine of its own, for a window's answers in the
// order StepAll gives them, device by device, and timestamps each as it
// arrives. The returned channel yields them all once the last arrives.
func awaitWindow(window []submitted) <-chan []answered {
	order := append([]submitted(nil), window...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].device < order[j].device })
	out := make(chan []answered, 1)
	go func() {
		got := make([]answered, len(order))
		for i, s := range order {
			resp, err := s.t.Wait()
			got[i] = answered{job: s.job, lat: time.Since(s.start), outputs: resp.Outputs, err: err}
		}
		out <- got
	}()
	return out
}

// replay runs the trace once on a fresh stepped fleet, stopping after the
// first step past the deadline. A complete replay is one round.
func (b *fleetBench) replay(ph *phase, tr *tracer, deadline time.Time) error {
	epoch := time.Unix(0, 0).UTC()
	var offset time.Duration
	f, err := fleet.New(fleet.Config{
		Devices: b.devices, Planner: b.planner, Tune: true,
		Stepped: true, Clock: func() time.Time { return epoch.Add(offset) },
	})
	if err != nil {
		return err
	}
	defer f.Close()
	position := map[string]int{}
	for i, id := range f.Devices() {
		position[id] = i
	}
	var window []submitted
	// idle is when the loop's previous fleet call returned: a submission is
	// due then, so the gap until its Enqueue is the load generator's lag.
	var idle time.Time
	for i, ev := range b.events {
		offset = time.Duration(i+1) * fleet.ReplayTick
		switch ev.op {
		case fleet.OpSubmit:
			var s scope
			if tr != nil {
				s = tr.root(len(ph.lat)+len(window), 0).begin("fleet.enqueue")
			}
			t0 := time.Now()
			if !idle.IsZero() {
				ph.lag = append(ph.lag, ms(t0.Sub(idle)))
			}
			pl, t, err := f.Enqueue(b.jobs[ev.job])
			idle = time.Now()
			if tr != nil {
				s.end()
			}
			if err != nil {
				ph.fail()
				fmt.Fprintf(b.log, "fleet-replay %s: %v\n", b.progs[ev.job].name, err)
				continue
			}
			window = append(window, submitted{job: ev.job, device: position[pl.Device], t: t, start: t0})
		case fleet.OpStep:
			answers := awaitWindow(window)
			var s scope
			if tr != nil {
				s = tr.root(len(ph.lat), 0).begin("fleet.step")
			}
			f.StepAll()
			if tr != nil {
				s.end()
			}
			for _, a := range <-answers {
				if a.err != nil {
					ph.fail()
					fmt.Fprintf(b.log, "fleet-replay %s: %v\n", b.progs[a.job].name, a.err)
					continue
				}
				ph.done(a.lat)
				b.answers[a.job][hashOutputs(a.outputs)]++
			}
			window = window[:0]
			ph.probeHost()
			idle = time.Now()
			if idle.After(deadline) {
				return nil
			}
		case fleet.OpFail:
			err = f.FailDevice(fleetVictim)
		case fleet.OpRestore:
			err = f.RestoreDevice(fleetVictim)
		case fleet.OpFaults:
			err = f.SetDeviceFaults(fleetVictim, ev.faults)
		}
		if err != nil {
			return fmt.Errorf("replay event %d: %w", i, err)
		}
	}
	ph.endRound()
	rep := f.Report()
	b.replays++
	if b.replays == 1 {
		b.makespan = rep.MakespanNs
	} else if rep.MakespanNs != b.makespan {
		b.diverged++
		fmt.Fprintf(b.log, "fleet-replay: replay %d makespan %d ns, first replay %d ns\n", b.replays, rep.MakespanNs, b.makespan)
	}
	b.report.stolen += rep.Stolen
	b.report.rerouted += rep.Rerouted
	b.report.shed += rep.Aggregate.Shed
	b.served = b.served.plus(serveCounts{completed: rep.Aggregate.Completed, batches: rep.Aggregate.Batches})
	return nil
}

// machine returns the platform of the device class a plan key names.
func (b *fleetBench) machine(key string) (runtime.Config, error) {
	parts := strings.Split(key, "|")
	for _, dc := range b.devices {
		if len(parts) > 1 && dc.Runtime.MIC.Name == parts[1] {
			return *dc.Runtime, nil
		}
	}
	return runtime.Config{}, fmt.Errorf("plan %s names no fleet machine", key)
}

// job returns the index of the job a plan key was built for.
func (b *fleetBench) job(key string) (int, error) {
	base := strings.SplitN(key, "|", 2)[0]
	for i, job := range b.jobs {
		if job.Key == base || job.Workload == base {
			return i, nil
		}
	}
	return 0, fmt.Errorf("plan %s names no job", key)
}

// fleetDecomposedPerPlan is how many requests per plan a traced run sends
// through the server's layer calls one at a time.
const fleetDecomposedPerPlan = 3

// decompose sends requests for every cached plan through the calls a
// device's server makes for each one, on that device's platform.
func (b *fleetBench) decompose(tr *tracer) error {
	return withoutDefaultEngine(func() error {
		op := 0
		for _, plan := range b.planner.Explain() {
			j, err := b.job(plan.Key)
			if err != nil {
				return err
			}
			cfg, err := b.machine(plan.Key)
			if err != nil {
				return err
			}
			if plan.Tuned == nil {
				return fmt.Errorf("plan %s has no tuning decision", plan.Key)
			}
			p := b.progs[j]
			src, err := tracedOptimizeTuned(tr.root(op, 0), p.src, plan.Tuned)
			if err != nil {
				return fmt.Errorf("%s: %w", plan.Key, err)
			}
			for i := 0; i < fleetDecomposedPerPlan; i++ {
				op++
				d, err := decomposedRequest(tr.root(op, 0), p, src, cfg, serveStreams)
				if err != nil {
					return fmt.Errorf("%s: %w", plan.Key, err)
				}
				b.requestMs[j] = append(b.requestMs[j], ms(d))
			}
		}
		return nil
	})
}

// layers reports the router's decisions per complete replay, the serving
// counters, and the serving layer's overhead.
func (b *fleetBench) layers(tr *tracer, traced *phase) map[string]float64 {
	hits, misses, probes := b.planner.Stats()
	c := b.served
	c.hits, c.misses, c.probes = hits-b.warm.hits, misses-b.warm.misses, probes-b.warm.probes
	m := c.metrics()
	m["fleet.stolen"] = per(b.report.stolen, b.replays)
	m["fleet.rerouted"] = per(b.report.rerouted, b.replays)
	m["fleet.shed"] = per(b.report.shed, b.replays)
	served := map[int]int{}
	for j, counts := range b.answers {
		for _, n := range counts {
			served[j] += n
		}
	}
	m["serve.overhead_frac"] = overheadFrac(b.requestMs, served, traced)
	return m
}

func (b *fleetBench) check() (float64, int, error) {
	wrong := b.diverged
	for j, counts := range b.answers {
		if len(counts) == 0 {
			continue
		}
		want, err := b.progs[j].want()
		if err != nil {
			return 0, 0, err
		}
		h := hashOutputs(want)
		for got, n := range counts {
			if got != h {
				wrong += n
				fmt.Fprintf(b.log, "fleet-replay %s: %d answers differ from the oracle\n", b.progs[j].name, n)
			}
		}
	}
	var speedups []float64
	for _, plan := range b.planner.Explain() {
		j, err := b.job(plan.Key)
		if err != nil {
			return 0, 0, err
		}
		if b.jobs[j].Workload == "" {
			continue // generated programs vary with the seed
		}
		cfg, err := b.machine(plan.Key)
		if err != nil {
			return 0, 0, err
		}
		naive, _, err := b.progs[j].simulate(b.progs[j].src, cfg)
		if err != nil {
			return 0, 0, err
		}
		speedups = append(speedups, float64(naive)/float64(plan.Tuned.MeasuredNs))
	}
	fmt.Fprintf(b.log, "fleet-replay: %d complete replays, makespan %d ns; per replay %.1f stolen, %.1f rerouted, %.1f shed\n",
		b.replays, b.makespan, per(b.report.stolen, b.replays), per(b.report.rerouted, b.replays), per(b.report.shed, b.replays))
	return geomean(speedups), wrong, nil
}

func (b *fleetBench) close() {}

func per(n int64, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
