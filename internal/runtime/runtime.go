// Package runtime is the offload runtime: it implements interp.Backend by
// mapping the interpreter's operation stream (host compute segments,
// offloads, asynchronous transfers, waits) onto the discrete-event machine
// — PCIe DMA channels, the device compute fabric with launch overhead and
// persistent kernels, and the capacity-limited device memory.
//
// It is the analogue of Intel's LEO runtime plus the lower-level COI layer
// the paper drops to for signal-based kernel reuse (§III-C).
package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/sim/devmem"
	"comp/internal/sim/engine"
	"comp/internal/sim/fault"
	"comp/internal/sim/kernel"
	"comp/internal/sim/machine"
	"comp/internal/sim/pcie"
)

// Config assembles the simulated platform.
type Config struct {
	CPU        machine.Config
	MIC        machine.Config
	PCIe       pcie.Config
	CPUThreads int
	MICThreads int
	// Faults is the injected-failure schedule; the zero value injects
	// nothing.
	Faults fault.Config
	// Recovery controls the resilience layer; the zero value enables
	// recovery with the default policy.
	Recovery RecoveryConfig
	// DisableTrace turns off span recording. Stats and program outputs are
	// identical either way — the observability layer is strictly read-only
	// with respect to the simulation; disabling only saves the span
	// allocations on hot benchmarking loops.
	DisableTrace bool
}

// RecoveryConfig switches the runtime's fault-recovery policy. The policy
// itself is fixed: up to DefaultMaxRetries reissues of a failed DMA or
// kernel launch (backing off from DefaultBackoff, doubling per attempt)
// before escalating to a blocking reset, and a DefaultWatchdog bound on
// how long a hung kernel or stalled wait may hold on.
type RecoveryConfig struct {
	// Disabled turns recovery off entirely: any injected fault aborts the
	// run with an error. Used by the resilience ablation as the baseline.
	Disabled bool
}

// Recovery policy.
const (
	DefaultMaxRetries                 = 4
	DefaultBackoff    engine.Duration = 2 * engine.Microsecond
	DefaultWatchdog   engine.Duration = 100 * engine.Microsecond
)

// DefaultConfig returns the calibrated evaluation platform (§VI): a Xeon
// E5-2660 host with 4 worker threads and a Xeon Phi with 200 threads.
func DefaultConfig() Config {
	return Config{
		CPU:        machine.XeonE5(),
		MIC:        machine.XeonPhi(),
		PCIe:       pcie.Default(),
		CPUThreads: machine.DefaultCPUThreads,
		MICThreads: machine.DefaultMICThreads,
	}
}

// Validate reports configuration errors, naming the offending field.
func (c Config) Validate() error {
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if err := c.MIC.Validate(); err != nil {
		return err
	}
	if c.PCIe == (pcie.Config{}) {
		return fmt.Errorf("runtime: Config.PCIe is zero-valued; start from pcie.Default()")
	}
	if err := c.PCIe.Validate(); err != nil {
		return err
	}
	if c.CPUThreads < 1 {
		return fmt.Errorf("runtime: Config.CPUThreads %d must be positive", c.CPUThreads)
	}
	if c.MICThreads < 1 {
		return fmt.Errorf("runtime: Config.MICThreads %d must be positive", c.MICThreads)
	}
	if max := c.CPU.MaxThreads(); c.CPUThreads > max {
		return fmt.Errorf("runtime: Config.CPUThreads %d exceeds the host machine's maximum %d", c.CPUThreads, max)
	}
	if max := c.MIC.MaxThreads(); c.MICThreads > max {
		return fmt.Errorf("runtime: Config.MICThreads %d exceeds the device's maximum %d", c.MICThreads, max)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("runtime: Config.Faults: %w", err)
	}
	return nil
}

// Stats summarizes one simulated run.
type Stats struct {
	// Time is the end-to-end makespan.
	Time engine.Duration
	// HostBusy, DeviceBusy are busy times of the compute resources.
	HostBusy   engine.Duration
	DeviceBusy engine.Duration
	// TransferBusy is total DMA channel busy time (both directions).
	TransferBusy engine.Duration
	// Overlap is the time transfers and device compute proceeded
	// concurrently — the quantity data streaming maximizes.
	Overlap engine.Duration
	// KernelLaunches counts kernel starts (persistent kernels count once).
	KernelLaunches int64
	// Transfers counts DMA operations; BytesIn/BytesOut their payloads.
	Transfers int64
	BytesIn   int64
	BytesOut  int64
	// PeakDeviceBytes is the device memory high-water mark.
	PeakDeviceBytes uint64
	// RaceWarnings lists pipelining races detected after the run: DMAs
	// that overwrote a device buffer while a kernel using that buffer was
	// still in flight. The interpreter's sequential value execution hides
	// such races, so a non-empty list means the (possibly hand-written)
	// pipelined code is incorrect on real hardware even though its
	// simulated outputs look right.
	RaceWarnings []string
	// DeadlockWarnings lists operations that never completed because a
	// signal tag they waited on never fired. On real hardware the program
	// hangs; in the simulator the stalled work silently drops out of the
	// makespan, so it is surfaced here instead.
	DeadlockWarnings []string
	// FaultsInjected counts failures the fault schedule fired this run.
	FaultsInjected int64
	// Retries counts reissued DMAs, kernel launches and allocations.
	Retries int64
	// WatchdogFires counts hung kernels and stalled waits the watchdog
	// aborted.
	WatchdogFires int64
	// Fallbacks records each step taken down the degradation ladder
	// (pipelined streaming -> synchronous single-buffer -> host-only).
	Fallbacks []string
	// FaultWarnings records recovery escalations: exhausted retry budgets
	// and watchdog aborts.
	FaultWarnings []string
}

// Runtime implements interp.Backend over the discrete-event simulator.
//
// A Runtime normally owns the whole simulated platform (New). Under the
// stream Scheduler, several Runtimes share one simulation: each executes one
// request on its stream's slice of the device — a partitioned machine
// config, a per-stream launcher and host resource, a shared PCIe bus and
// shared device memory (see newOnStream).
type Runtime struct {
	cfg      Config
	sim      *engine.Sim
	bus      *pcie.Bus
	launcher *kernel.Launcher
	mem      *devmem.Allocator
	host     *engine.Resource

	// mic and micThreads are the device model this runtime computes with:
	// the full card for a standalone runtime, the stream's core share under
	// the scheduler.
	mic        machine.Config
	micThreads int
	// dmaArgs is merged onto every DMA span this runtime issues (the
	// scheduler tags transfers with their stream id); nil for standalone.
	dmaArgs map[string]any

	// hostTail is the event after which the host thread is free again.
	hostTail *engine.Event
	// tags maps signal names to their completion events.
	tags map[string]*engine.Event
	// persistent kernels keyed by offload pragma identity.
	persist map[*minic.Pragma]*kernel.Persistent
	// device buffer blocks by name.
	bufs map[string]*devmem.Block

	// Intervals for post-run race detection.
	bufWrites  []interval // DMA writes into device buffers
	kernelUses []interval // kernel executions touching device buffers

	// kernels tracks every kernel for deadlock checks and watchdog
	// recovery of end-of-run stalls.
	kernels []kernelRec

	// Overlap meters: transfer↔compute concurrency measured online from
	// resource busy counters, so Stats.Overlap does not depend on whether
	// trace recording is enabled.
	ovIn  *engine.OverlapMeter
	ovOut *engine.OverlapMeter

	// Resilience state.
	inj           *fault.Injector // nil when no faults are configured
	mode          offloadMode
	staging       *devmem.Block // single bounce buffer of the sync mode
	retries       int64
	watchdogFires int64
	fallbacks     []string
	faultWarns    []string

	finished bool
}

// offloadMode is the rung of the degradation ladder the runtime is on.
// Degradation is sticky: once device memory has proven too small (or too
// broken) for the resident plan, later offloads do not climb back up.
type offloadMode int

const (
	// modeNormal is the full plan: resident device buffers, pipelined
	// transfers, persistent kernels.
	modeNormal offloadMode = iota
	// modeSync bounces every transfer through one staging buffer and
	// serializes DMA-kernel-DMA per offload: slower, but it survives
	// device memory that cannot hold the working set.
	modeSync
	// modeHost runs offload regions on the host CPU; the device is not
	// used at all.
	modeHost
)

// kernelRec ties a kernel completion event to what the watchdog needs for
// recovery: a label for diagnostics and the region's work so a stalled
// kernel can be re-run on the host.
type kernelRec struct {
	done  *engine.Event
	label string
	work  interp.Work
}

// interval is a resource occupation tied to a buffer, resolved after the
// simulation runs (the event fires at the interval's end; the duration is
// known at submission).
type interval struct {
	buf    string
	label  string
	done   *engine.Event
	dur    engine.Duration
	loByte int64
	hiByte int64 // exclusive
}

func (iv interval) bounds() (engine.Time, engine.Time) {
	end := iv.done.Time()
	return end - engine.Time(iv.dur), end
}

// New builds a runtime over a fresh simulation it owns outright.
func New(cfg Config) *Runtime {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sim := engine.New()
	if cfg.DisableTrace {
		sim.Trace().SetEnabled(false)
	}
	memBytes := cfg.MIC.MemBytes
	if memBytes == 0 {
		memBytes = 8 << 30
	}
	host := sim.NewResource("cpu", 1)
	host.SetCategory(engine.CatHost)
	bus := pcie.New(sim, cfg.PCIe)
	launcher := kernel.NewLauncher(sim, cfg.MIC.LaunchOverhead)
	mem := devmem.New(memBytes, cfg.MIC.OSReservedBytes)
	r := newOnStream(cfg, streamParts{
		sim:        sim,
		bus:        bus,
		mem:        mem,
		launcher:   launcher,
		host:       host,
		mic:        cfg.MIC,
		micThreads: cfg.MICThreads,
	})
	r.ovIn = sim.MeterOverlap(bus.Resource(pcie.HostToDevice), launcher.Resource())
	r.ovOut = sim.MeterOverlap(bus.Resource(pcie.DeviceToHost), launcher.Resource())
	mem.SetTrace(sim.Trace(), sim.Now)
	if cfg.Faults.Enabled() {
		r.inj = fault.New(cfg.Faults)
		r.inj.SetTrace(sim.Trace(), sim.Now)
		bus.SetInjector(r.inj)
		launcher.SetFaults(r.inj, DefaultWatchdog)
		mem.SetInjector(r.inj)
	}
	return r
}

// streamParts is the slice of a (possibly shared) simulated platform one
// Runtime executes on. New fills it with a whole fresh platform; the
// Scheduler fills it with shared sim/bus/memory plus the per-stream
// launcher, host resource, device share and fault injector.
type streamParts struct {
	sim        *engine.Sim
	bus        *pcie.Bus
	mem        *devmem.Allocator
	launcher   *kernel.Launcher
	host       *engine.Resource
	mic        machine.Config
	micThreads int
	// inj, dmaArgs, after are optional: the request's fault injector, the
	// extra args stamped on its DMA spans, and the event gating its first
	// operation (nil means start immediately).
	inj     *fault.Injector
	dmaArgs map[string]any
	after   *engine.Event
}

// newOnStream builds a runtime over pre-built platform parts. The caller is
// responsible for any overlap meters (they must exist before the first
// submission) and for pointing the shared bus/memory injector at parts.inj
// while this runtime's operations are being recorded.
func newOnStream(cfg Config, p streamParts) *Runtime {
	r := &Runtime{
		cfg:        cfg,
		sim:        p.sim,
		bus:        p.bus,
		launcher:   p.launcher,
		mem:        p.mem,
		host:       p.host,
		mic:        p.mic,
		micThreads: p.micThreads,
		inj:        p.inj,
		dmaArgs:    p.dmaArgs,
		tags:       map[string]*engine.Event{},
		persist:    map[*minic.Pragma]*kernel.Persistent{},
		bufs:       map[string]*devmem.Block{},
	}
	if p.after != nil {
		r.hostTail = p.after
	} else {
		r.hostTail = p.sim.FiredEvent()
	}
	return r
}

// Sim exposes the simulation (tests inspect the trace).
func (r *Runtime) Sim() *engine.Sim { return r.sim }

// Trace exposes the span recorder of the underlying simulation.
func (r *Runtime) Trace() *engine.Trace { return r.sim.Trace() }

// Memory exposes the device allocator.
func (r *Runtime) Memory() *devmem.Allocator { return r.mem }

// regionTime converts a measured Work into wall time on a machine.
func regionTime(m machine.Config, w interp.Work, threads int) engine.Duration {
	d := m.SerialTime(w.Serial.Flops)
	d += m.WorkTime(w.Vec.Flops, w.Vec.Bytes, w.Vec.IrregularFrac(), true, threads)
	d += m.WorkTime(w.Scalar.Flops, w.Scalar.Bytes, w.Scalar.IrregularFrac(), false, threads)
	return d
}

// HostCompute implements interp.Backend.
func (r *Runtime) HostCompute(w interp.Work) {
	d := regionTime(r.cfg.CPU, w, r.cfg.CPUThreads)
	r.hostTail = r.host.SubmitAfter(r.hostTail, "compute", d)
}

// tag returns the event for a signal tag, creating an unfired placeholder
// if the tag has not been signalled yet (waiting on a never-signalled tag
// deadlocks on real hardware; here it simply never gates anything, and
// Finish reports it).
func (r *Runtime) tag(name string) *engine.Event {
	if ev, ok := r.tags[name]; ok {
		return ev
	}
	ev := r.sim.NewEvent("tag:" + name)
	r.tags[name] = ev
	return ev
}

// backoffDur returns the exponential backoff before retry `attempt`
// (1-based): backoff, 2·backoff, 4·backoff, ...
func (r *Runtime) backoffDur(attempt int) engine.Duration {
	shift := attempt - 1
	if shift > 20 {
		shift = 20
	}
	return DefaultBackoff << shift
}

// traceRecovery records a recovery instant on the "runtime" pseudo-resource
// at the moment the triggering event fires — the simulated time the failed
// attempt released its resource — so retries and watchdog aborts appear
// where they happen on the timeline rather than at issue time. Recording is
// observation only; it never alters scheduling.
func (r *Runtime) traceRecovery(trigger *engine.Event, label string, cat engine.Category, args map[string]any) {
	tr := r.sim.Trace()
	if !tr.Enabled() {
		return
	}
	trigger.OnFire(func(t engine.Time) {
		tr.Instant("runtime", label, cat, t, args)
	})
}

// dma issues one DMA under the fault schedule, retrying failed attempts
// with exponential backoff. After the retry budget it models a blocking
// driver-level channel reset that always succeeds, so a DMA never fails
// permanently unless recovery is disabled.
func (r *Runtime) dma(after *engine.Event, dir pcie.Direction, label string, bytes int64) (*engine.Event, error) {
	if r.inj == nil {
		return r.bus.TransferAfterArgs(after, dir, label, bytes, r.dmaArgs), nil
	}
	ev, ok := r.bus.TryTransferAfterArgs(after, dir, label, bytes, r.dmaArgs)
	if ok {
		return ev, nil
	}
	if r.cfg.Recovery.Disabled {
		return nil, fmt.Errorf("runtime: DMA %q failed (injected fault, recovery disabled)", label)
	}
	for attempt := 1; attempt <= DefaultMaxRetries; attempt++ {
		r.retries++
		r.traceRecovery(ev, "retry:"+label, engine.CatRetry,
			map[string]any{"op": "dma", "attempt": attempt, "bytes": bytes})
		ready := engine.Delay(r.sim, ev, r.backoffDur(attempt))
		if ev, ok = r.bus.TryTransferAfterArgs(ready, dir, label, bytes, r.dmaArgs); ok {
			return ev, nil
		}
	}
	r.retries++
	r.traceRecovery(ev, "reset:"+label, engine.CatRetry,
		map[string]any{"op": "dma-channel-reset", "bytes": bytes})
	r.faultWarns = append(r.faultWarns, fmt.Sprintf(
		"DMA %q failed %d retries; escalated to a blocking channel reset", label, DefaultMaxRetries))
	ready := engine.Delay(r.sim, ev, r.backoffDur(DefaultMaxRetries+1))
	return r.bus.TransferAfterArgs(ready, dir, label, bytes, r.dmaArgs), nil
}

// launchKernel starts a kernel under the fault schedule. Failed launches
// retry after backoff; hangs hold the device until the watchdog aborts
// them, then relaunch. After the retry budget a blocking device reset
// guarantees the final launch.
func (r *Runtime) launchKernel(ready *engine.Event, label string, dur engine.Duration) (*engine.Event, error) {
	if r.inj == nil {
		return r.launcher.Launch(ready, label, dur), nil
	}
	ev, out := r.launcher.TryLaunch(ready, label, dur)
	for attempt := 1; out != kernel.OK; attempt++ {
		if r.cfg.Recovery.Disabled {
			return nil, fmt.Errorf("runtime: kernel %q did not run (injected %v, recovery disabled)", label, out)
		}
		if out == kernel.Hang {
			r.watchdogFires++
			r.traceRecovery(ev, "watchdog:"+label, engine.CatFault,
				map[string]any{"op": "kernel-hang-abort", "watchdog": int64(DefaultWatchdog)})
			r.faultWarns = append(r.faultWarns, fmt.Sprintf(
				"watchdog: kernel %q hung; aborted after %v", label, DefaultWatchdog))
		}
		r.retries++
		r.traceRecovery(ev, "retry:"+label, engine.CatRetry,
			map[string]any{"op": "launch", "attempt": attempt})
		next := engine.Delay(r.sim, ev, r.backoffDur(attempt))
		if attempt > DefaultMaxRetries {
			r.traceRecovery(ev, "reset:"+label, engine.CatRetry,
				map[string]any{"op": "device-reset"})
			r.faultWarns = append(r.faultWarns, fmt.Sprintf(
				"kernel %q failed %d retries; escalated to a blocking device reset", label, DefaultMaxRetries))
			return r.launcher.Launch(next, label, dur), nil
		}
		ev, out = r.launcher.TryLaunch(next, label, dur)
	}
	return ev, nil
}

// runBlock is launchKernel for a block on a persistent kernel; resident
// threads cannot fail to launch, but they can hang.
func (r *Runtime) runBlock(p *kernel.Persistent, ready *engine.Event, label string, dur engine.Duration) (*engine.Event, error) {
	if r.inj == nil {
		return p.RunBlock(ready, label, dur), nil
	}
	ev, out := p.TryRunBlock(ready, label, dur)
	for attempt := 1; out != kernel.OK; attempt++ {
		if r.cfg.Recovery.Disabled {
			return nil, fmt.Errorf("runtime: persistent block %q did not run (injected %v, recovery disabled)", label, out)
		}
		r.watchdogFires++
		r.traceRecovery(ev, "watchdog:"+label, engine.CatFault,
			map[string]any{"op": "block-hang-abort", "watchdog": int64(DefaultWatchdog)})
		r.faultWarns = append(r.faultWarns, fmt.Sprintf(
			"watchdog: persistent block %q hung; aborted after %v", label, DefaultWatchdog))
		r.retries++
		r.traceRecovery(ev, "retry:"+label, engine.CatRetry,
			map[string]any{"op": "block", "attempt": attempt})
		next := engine.Delay(r.sim, ev, r.backoffDur(attempt))
		if attempt > DefaultMaxRetries {
			r.faultWarns = append(r.faultWarns, fmt.Sprintf(
				"block %q failed %d retries; escalated to a blocking re-signal", label, DefaultMaxRetries))
			return p.RunBlock(next, label, dur), nil
		}
		ev, out = p.TryRunBlock(next, label, dur)
	}
	return ev, nil
}

// allocBlock allocates device memory, retrying injected transient failures
// (capacity exhaustion is not retried — it cannot succeed).
func (r *Runtime) allocBlock(size uint64, label string) (*devmem.Block, error) {
	b, err := r.mem.Alloc(size, label)
	if err == nil || r.cfg.Recovery.Disabled || !errors.Is(err, devmem.ErrFaultInjected) {
		return b, err
	}
	for attempt := 1; attempt <= DefaultMaxRetries; attempt++ {
		r.retries++
		if b, err = r.mem.Alloc(size, label); err == nil || !errors.Is(err, devmem.ErrFaultInjected) {
			return b, err
		}
	}
	return nil, err
}

// allocFailure reports whether err means device memory could not be had —
// the trigger for stepping down the degradation ladder.
func allocFailure(err error) bool {
	return errors.Is(err, devmem.ErrOutOfMemory) || errors.Is(err, devmem.ErrFaultInjected)
}

// degrade steps down one rung after an allocation failure: the resident
// buffer plan is abandoned for the staging-buffer sync mode, and the sync
// mode for host-only execution. Already-submitted device work still
// drains; only future offloads use the new mode.
func (r *Runtime) degrade(cause error) {
	switch r.mode {
	case modeNormal:
		r.mode = modeSync
		for _, p := range r.persist {
			p.Exit()
		}
		r.persist = map[*minic.Pragma]*kernel.Persistent{}
		r.freeAllBufs()
		r.sim.Trace().Instant("runtime", "fallback:sync", engine.CatFallback, r.sim.Now(),
			map[string]any{"from": "pipelined", "to": "sync", "cause": cause.Error()})
		r.fallbacks = append(r.fallbacks, fmt.Sprintf(
			"device allocation failed (%v); pipelined streaming -> synchronous single-buffer offload", cause))
	case modeSync:
		r.mode = modeHost
		if r.staging != nil {
			r.mem.Free(r.staging)
			r.staging = nil
		}
		r.sim.Trace().Instant("runtime", "fallback:host", engine.CatFallback, r.sim.Now(),
			map[string]any{"from": "sync", "to": "host", "cause": cause.Error()})
		r.fallbacks = append(r.fallbacks, fmt.Sprintf(
			"staging allocation failed (%v); synchronous offload -> host-only execution", cause))
	}
}

// freeAllBufs releases every resident device buffer, in sorted name order
// so the allocator's hole layout stays deterministic.
func (r *Runtime) freeAllBufs() {
	names := make([]string, 0, len(r.bufs))
	for n := range r.bufs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.mem.Free(r.bufs[n])
		delete(r.bufs, n)
	}
}

// ensureStaging guarantees the sync-mode bounce buffer holds at least size
// bytes, growing it by reallocation.
func (r *Runtime) ensureStaging(size uint64) error {
	if r.staging != nil && r.staging.Size >= size {
		return nil
	}
	if r.staging != nil {
		r.mem.Free(r.staging)
		r.staging = nil
	}
	b, err := r.allocBlock(size, "staging")
	if err != nil {
		return err
	}
	r.staging = b
	if r.mic.AllocOverhead > 0 {
		r.hostTail = r.host.SubmitTagged(r.hostTail, "alloc", engine.CatAlloc,
			r.mic.AllocOverhead, map[string]any{"bytes": size, "buf": "staging"})
	}
	return nil
}

// allocSpecs performs device allocations for an op's specs in program
// order, returning an OOM error if capacity is exceeded. Each allocation
// costs AllocOverhead of host time — the §III-A overhead the streaming
// transform hoists out of the loop.
func (r *Runtime) allocSpecs(specs []interp.TransferSpec) error {
	allocs := 0
	for _, sp := range specs {
		if sp.Scalar || !sp.Alloc {
			continue
		}
		if old := r.bufs[sp.Dest]; old != nil {
			r.mem.Free(old)
			delete(r.bufs, sp.Dest)
		}
		if sp.AllocBytes == 0 {
			continue
		}
		b, err := r.allocBlock(uint64(sp.AllocBytes), sp.Dest)
		if err != nil {
			return err
		}
		r.bufs[sp.Dest] = b
		allocs++
	}
	if allocs > 0 && r.mic.AllocOverhead > 0 {
		d := engine.Duration(allocs) * r.mic.AllocOverhead
		r.hostTail = r.host.SubmitTagged(r.hostTail, "alloc", engine.CatAlloc,
			d, map[string]any{"allocs": allocs})
	}
	return nil
}

// freeSpecs releases buffers whose specs request freeing.
func (r *Runtime) freeSpecs(specs []interp.TransferSpec) {
	for _, sp := range specs {
		if sp.Scalar || !sp.Free {
			continue
		}
		if b := r.bufs[sp.Dest]; b != nil {
			r.mem.Free(b)
			delete(r.bufs, sp.Dest)
		}
	}
}

// submitInputs schedules the host-to-device DMAs of an op. Scalar items
// are batched into one descriptor; each array item is its own DMA.
func (r *Runtime) submitInputs(specs []interp.TransferSpec, after *engine.Event) ([]*engine.Event, error) {
	var events []*engine.Event
	var scalarBytes int64
	for _, sp := range specs {
		if sp.Dir != interp.DirIn {
			continue
		}
		if sp.Scalar {
			scalarBytes += sp.Bytes
			continue
		}
		ev, err := r.dma(after, pcie.HostToDevice, sp.Item.Name+"->"+sp.Dest, sp.Bytes)
		if err != nil {
			return nil, err
		}
		r.bufWrites = append(r.bufWrites, interval{
			buf:    sp.Dest,
			label:  sp.Item.Name + "->" + sp.Dest,
			done:   ev,
			dur:    r.bus.TransferTime(sp.Bytes),
			loByte: sp.DestOffsetBytes,
			hiByte: sp.DestOffsetBytes + sp.Bytes,
		})
		events = append(events, ev)
	}
	if scalarBytes > 0 {
		ev, err := r.dma(after, pcie.HostToDevice, "scalars", scalarBytes)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// submitOutputs schedules the device-to-host DMAs of an op.
func (r *Runtime) submitOutputs(specs []interp.TransferSpec, after *engine.Event) ([]*engine.Event, error) {
	var events []*engine.Event
	var scalarBytes int64
	for _, sp := range specs {
		if sp.Dir != interp.DirOut {
			continue
		}
		if sp.Scalar {
			scalarBytes += sp.Bytes
			continue
		}
		ev, err := r.dma(after, pcie.DeviceToHost, sp.Dest+"->host", sp.Bytes)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	if scalarBytes > 0 {
		ev, err := r.dma(after, pcie.DeviceToHost, "scalars", scalarBytes)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	return events, nil
}

// Offload implements interp.Backend. On the normal rung it allocates,
// moves inputs, runs the kernel (gated on the wait tag and input DMAs),
// moves outputs, and frees. An allocation failure steps down the
// degradation ladder and re-dispatches the op on the new rung, so an
// offload only errors when recovery is disabled.
func (r *Runtime) Offload(op *interp.OffloadOp) error {
	for {
		var err error
		switch r.mode {
		case modeNormal:
			err = r.offloadPipelined(op)
		case modeSync:
			err = r.offloadSync(op)
		default:
			r.offloadHost(op)
			return nil
		}
		if err == nil {
			return nil
		}
		if r.cfg.Recovery.Disabled || !allocFailure(err) {
			return err
		}
		r.degrade(err)
	}
}

// offloadPipelined is the full plan: resident buffers, overlap-friendly
// DMA issue, persistent kernels.
func (r *Runtime) offloadPipelined(op *interp.OffloadOp) error {
	if err := r.allocSpecs(op.Specs); err != nil {
		return err
	}
	inputs, err := r.submitInputs(op.Specs, r.hostTail)
	if err != nil {
		return err
	}
	deps := append([]*engine.Event{r.hostTail}, inputs...)
	if op.Wait != "" {
		deps = append(deps, r.tag(op.Wait))
	}
	ready := engine.AllOf(r.sim, deps...)

	dur := regionTime(r.mic, op.Work, r.micThreads)
	label := pragmaLabel(op.Pragma)
	var done *engine.Event
	if op.Persist {
		p := r.persist[op.Pragma]
		if p == nil {
			p = r.launcher.LaunchPersistent(label)
			r.persist[op.Pragma] = p
		}
		if done, err = r.runBlock(p, ready, "block", dur); err != nil {
			return err
		}
	} else {
		if done, err = r.launchKernel(ready, label, dur); err != nil {
			return err
		}
	}
	for _, br := range op.DevTouched {
		r.kernelUses = append(r.kernelUses, interval{
			buf:    br.Name,
			label:  label,
			done:   done,
			dur:    dur,
			loByte: br.StartByte,
			hiByte: br.EndByte,
		})
	}

	r.kernels = append(r.kernels, kernelRec{done: done, label: label, work: op.Work})
	outputs, err := r.submitOutputs(op.Specs, done)
	if err != nil {
		return err
	}
	all := engine.AllOf(r.sim, append([]*engine.Event{done}, outputs...)...)
	if op.Signal != "" {
		// Asynchronous offload: the host continues; completion fires the tag.
		r.tags[op.Signal] = all
	} else {
		r.hostTail = all
	}
	r.freeSpecs(op.Specs)
	return nil
}

// offloadSync is the first fallback rung: every array bounces through one
// staging buffer, and the op runs strictly DMA-in, kernel, DMA-out with no
// overlap with other work. Per-buffer alloc/free requests are ignored —
// the staging buffer is the only resident allocation — so working sets far
// beyond device capacity still run, just slowly. Race intervals are not
// recorded: the serial chain cannot overlap by construction.
func (r *Runtime) offloadSync(op *interp.OffloadOp) error {
	var need int64
	for _, sp := range op.Specs {
		if !sp.Scalar && sp.Bytes > need {
			need = sp.Bytes
		}
	}
	if need > 0 {
		if err := r.ensureStaging(uint64(need)); err != nil {
			return err
		}
	}
	tail := r.hostTail
	if op.Wait != "" {
		tail = engine.AllOf(r.sim, tail, r.tag(op.Wait))
	}
	tail, err := r.syncDMAs(op.Specs, interp.DirIn, pcie.HostToDevice, tail)
	if err != nil {
		return err
	}
	dur := regionTime(r.mic, op.Work, r.micThreads)
	label := pragmaLabel(op.Pragma)
	done, err := r.launchKernel(tail, label+"!sync", dur)
	if err != nil {
		return err
	}
	r.kernels = append(r.kernels, kernelRec{done: done, label: label, work: op.Work})
	tail, err = r.syncDMAs(op.Specs, interp.DirOut, pcie.DeviceToHost, done)
	if err != nil {
		return err
	}
	if op.Signal != "" {
		r.tags[op.Signal] = tail
	} else {
		r.hostTail = tail
	}
	return nil
}

// syncDMAs issues the specs of one direction as a serial chain through the
// staging buffer, returning the chain's tail.
func (r *Runtime) syncDMAs(specs []interp.TransferSpec, want interp.Direction, dir pcie.Direction, tail *engine.Event) (*engine.Event, error) {
	var scalarBytes int64
	for _, sp := range specs {
		if sp.Dir != want {
			continue
		}
		if sp.Scalar {
			scalarBytes += sp.Bytes
			continue
		}
		ev, err := r.dma(tail, dir, sp.Dest+"!staged", sp.Bytes)
		if err != nil {
			return nil, err
		}
		tail = ev
	}
	if scalarBytes > 0 {
		ev, err := r.dma(tail, dir, "scalars", scalarBytes)
		if err != nil {
			return nil, err
		}
		tail = ev
	}
	return tail, nil
}

// offloadHost is the last rung: the offload region runs on the host CPU.
// Signal tags still fire — downstream waits must not deadlock just because
// the device is gone.
func (r *Runtime) offloadHost(op *interp.OffloadOp) {
	after := r.hostTail
	if op.Wait != "" {
		after = engine.AllOf(r.sim, after, r.tag(op.Wait))
	}
	d := regionTime(r.cfg.CPU, op.Work, r.cfg.CPUThreads)
	done := r.host.SubmitAfter(after, "offload-host", d)
	if op.Signal != "" {
		r.tags[op.Signal] = done
	} else {
		r.hostTail = done
	}
}

// Transfer implements interp.Backend: asynchronous DMA issue. On degraded
// rungs prefetch transfers lose their purpose (sync mode serializes, host
// mode has no device) but their signal tags must still fire.
func (r *Runtime) Transfer(op *interp.TransferOp) error {
	for {
		var err error
		switch r.mode {
		case modeNormal:
			err = r.transferPipelined(op)
		case modeSync:
			err = r.transferSync(op)
		default:
			after := r.hostTail
			if op.Wait != "" {
				after = engine.AllOf(r.sim, r.hostTail, r.tag(op.Wait))
			}
			if op.Signal != "" {
				r.tags[op.Signal] = after
			}
			return nil
		}
		if err == nil {
			return nil
		}
		if r.cfg.Recovery.Disabled || !allocFailure(err) {
			return err
		}
		r.degrade(err)
	}
}

func (r *Runtime) transferPipelined(op *interp.TransferOp) error {
	if err := r.allocSpecs(op.Specs); err != nil {
		return err
	}
	after := r.hostTail
	if op.Wait != "" {
		after = engine.AllOf(r.sim, r.hostTail, r.tag(op.Wait))
	}
	events, err := r.submitInputs(op.Specs, after)
	if err != nil {
		return err
	}
	outs, err := r.submitOutputs(op.Specs, after)
	if err != nil {
		return err
	}
	events = append(events, outs...)
	if op.Signal != "" {
		if len(events) == 0 {
			r.tags[op.Signal] = after
		} else {
			r.tags[op.Signal] = engine.AllOf(r.sim, events...)
		}
	}
	// offload_transfer returns immediately on the host; the DMA proceeds
	// in the background. Freeing (free_if(1)) applies once the DMAs drain.
	r.freeSpecs(op.Specs)
	return nil
}

// transferSync bounces the op's DMAs through the staging buffer as one
// serial chain.
func (r *Runtime) transferSync(op *interp.TransferOp) error {
	var need int64
	for _, sp := range op.Specs {
		if !sp.Scalar && sp.Bytes > need {
			need = sp.Bytes
		}
	}
	if need > 0 {
		if err := r.ensureStaging(uint64(need)); err != nil {
			return err
		}
	}
	tail := r.hostTail
	if op.Wait != "" {
		tail = engine.AllOf(r.sim, r.hostTail, r.tag(op.Wait))
	}
	tail, err := r.syncDMAs(op.Specs, interp.DirIn, pcie.HostToDevice, tail)
	if err != nil {
		return err
	}
	tail, err = r.syncDMAs(op.Specs, interp.DirOut, pcie.DeviceToHost, tail)
	if err != nil {
		return err
	}
	if op.Signal != "" {
		r.tags[op.Signal] = tail
	}
	return nil
}

// OffloadWait implements interp.Backend: block the host on a tag.
func (r *Runtime) OffloadWait(tagName string) {
	r.hostTail = engine.AllOf(r.sim, r.hostTail, r.tag(tagName))
}

func pragmaLabel(p *minic.Pragma) string {
	return fmt.Sprintf("offload@%s", p.Pos)
}

// Finish exits persistent kernels, drains the simulation, and returns the
// run's statistics. It must be called exactly once. (Scheduler-managed
// runtimes never call Finish — the scheduler closes every request's graph,
// runs the shared simulation once, and collects per-request stats itself.)
func (r *Runtime) Finish() Stats {
	if r.finished {
		panic("runtime: Finish called twice")
	}
	r.finished = true
	r.closeGraph()
	end := r.sim.Run()
	end = r.settle(end)
	var injected int64
	if r.inj != nil {
		injected = r.inj.Injected()
	}
	var overlap engine.Duration
	if r.ovIn != nil {
		overlap = r.ovIn.Total() + r.ovOut.Total()
	}
	return Stats{
		RaceWarnings:     r.detectRaces(),
		DeadlockWarnings: r.detectDeadlocks(),
		Time:             engine.Duration(end),
		HostBusy:         r.host.BusyTime(),
		DeviceBusy:       r.launcher.ComputeBusy(),
		TransferBusy:     r.bus.BusyTime(pcie.HostToDevice) + r.bus.BusyTime(pcie.DeviceToHost),
		Overlap:          overlap,
		KernelLaunches:   r.launcher.Launches(),
		Transfers:        r.bus.TotalTransfers(),
		BytesIn:          r.bus.BytesMoved(pcie.HostToDevice),
		BytesOut:         r.bus.BytesMoved(pcie.DeviceToHost),
		PeakDeviceBytes:  r.mem.Peak(),
		FaultsInjected:   injected,
		Retries:          r.retries,
		WatchdogFires:    r.watchdogFires,
		Fallbacks:        truncateWarnings(r.fallbacks),
		FaultWarnings:    truncateWarnings(r.faultWarns),
	}
}

// closeGraph exits this runtime's persistent kernels so their device
// occupancy ends; the event graph is complete afterwards. Exit submits no
// new work, so map iteration order does not affect the simulation.
func (r *Runtime) closeGraph() {
	for _, p := range r.persist {
		p.Exit()
	}
}

// settle extends a drained simulation's end time to cover this runtime's
// host tail and any end-of-run stall recovery.
func (r *Runtime) settle(end engine.Time) engine.Time {
	// The makespan also covers the host reaching its final point.
	if r.hostTail.Fired() && r.hostTail.Time() > end {
		end = r.hostTail.Time()
	}
	return r.recoverStalls(end)
}

// recoverStalls is the end-of-run watchdog: work that never completed
// because a signal never fired would hang real hardware forever. With
// recovery enabled, each stalled kernel is aborted after the watchdog
// period and re-run on the host, and a stalled final wait is abandoned;
// the returned makespan includes that recovery time. The stalls are still
// reported as DeadlockWarnings — recovery does not make the program
// correct, it makes the run finish.
func (r *Runtime) recoverStalls(end engine.Time) engine.Time {
	if r.cfg.Recovery.Disabled {
		return end
	}
	for _, k := range r.kernels {
		if k.done.Fired() {
			continue
		}
		r.watchdogFires++
		rerun := regionTime(r.cfg.CPU, k.work, r.cfg.CPUThreads)
		end += engine.Time(DefaultWatchdog + rerun)
		r.sim.Trace().Instant("runtime", "watchdog:"+k.label, engine.CatFault, end,
			map[string]any{"op": "stall-rerun-on-host", "rerun": int64(rerun)})
		r.faultWarns = append(r.faultWarns, fmt.Sprintf(
			"watchdog: kernel %s stalled on a signal that never fired; aborted after %v and re-run on the host (%v)",
			k.label, DefaultWatchdog, rerun))
	}
	if !r.hostTail.Fired() {
		r.watchdogFires++
		end += engine.Time(DefaultWatchdog)
		r.sim.Trace().Instant("runtime", "watchdog:host-wait", engine.CatFault, end,
			map[string]any{"op": "stall-abandoned"})
		r.faultWarns = append(r.faultWarns, fmt.Sprintf(
			"watchdog: host wait stalled; abandoned after %v", DefaultWatchdog))
	}
	return end
}

// maxRaceWarnings caps each reported warning list; one real pipelining bug
// typically races on every block.
const maxRaceWarnings = 16

// truncateWarnings caps a warning list at maxRaceWarnings entries,
// appending a final "... and N more" entry in place of the dropped ones.
func truncateWarnings(warns []string) []string {
	if len(warns) <= maxRaceWarnings {
		return warns
	}
	out := append([]string(nil), warns[:maxRaceWarnings]...)
	return append(out, fmt.Sprintf("... and %d more", len(warns)-maxRaceWarnings))
}

// detectDeadlocks reports, after the simulation drained, any kernel or
// signal tag that never completed — the signature of a wait on a tag no
// transfer or offload ever signals.
func (r *Runtime) detectDeadlocks() []string {
	var warns []string
	for i, k := range r.kernels {
		if !k.done.Fired() {
			warns = append(warns, fmt.Sprintf("kernel %d never ran (waiting on a signal that never fires?)", i))
		}
	}
	names := make([]string, 0, len(r.tags))
	for name := range r.tags {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !r.tags[name].Fired() {
			warns = append(warns, fmt.Sprintf("signal tag %q was waited on but never signalled", name))
		}
	}
	if !r.hostTail.Fired() {
		warns = append(warns, "host never reached the end of the program")
	}
	return truncateWarnings(warns)
}

// detectRaces scans, after the simulation has run, for DMA writes into a
// device buffer that overlap in simulated time with a kernel that touched
// the same buffer. A correctly double-buffered pipeline never triggers
// this: the prefetch always targets the buffer the kernel is NOT using.
func (r *Runtime) detectRaces() []string {
	// Group the kernel uses by buffer, keeping their order within each
	// buffer, so each write meets only the kernels that touched its buffer
	// and the warnings come out in (write, kernel) order. Nothing else
	// reads kernelUses, so they are sorted in place, allocating nothing.
	byBuf := func(k interval, buf string) int { return strings.Compare(k.buf, buf) }
	uses := r.kernelUses
	slices.SortStableFunc(uses, func(a, b interval) int { return byBuf(a, b.buf) })
	var warns []string
	for _, w := range r.bufWrites {
		if !w.done.Fired() {
			continue
		}
		ws, we := w.bounds()
		first, _ := slices.BinarySearchFunc(uses, w.buf, byBuf)
		for _, k := range uses[first:] {
			if k.buf != w.buf {
				break
			}
			if !k.done.Fired() {
				continue
			}
			// Disjoint byte ranges (Figure 5(b): prefetch into a different
			// section of the same device array) are not a race.
			if w.hiByte <= k.loByte || k.hiByte <= w.loByte {
				continue
			}
			ks, ke := k.bounds()
			if ws < ke && ks < we {
				warns = append(warns, fmt.Sprintf(
					"race on device buffer %q: transfer %s [%v,%v) overlaps kernel %s [%v,%v)",
					w.buf, w.label, ws, we, k.label, ks, ke))
			}
		}
	}
	return truncateWarnings(warns)
}

// Result bundles a program execution with its simulated statistics and the
// recorded execution timeline (empty when Config.DisableTrace is set).
type Result struct {
	Stats   Stats
	Program *interp.Program
	Trace   *engine.Trace
}

// Run executes a compiled program on a fresh runtime and returns the
// statistics. The program is Reset first so repeated Runs are independent.
func Run(p *interp.Program, cfg Config) (Result, error) {
	return RunWithSetup(p, cfg, nil)
}

// RunWithSetup executes a compiled program after applying an input-
// injection hook (workloads use it to load generated data between Reset
// and execution).
func RunWithSetup(p *interp.Program, cfg Config, setup func(*interp.Program) error) (Result, error) {
	if err := p.Reset(); err != nil {
		return Result{}, err
	}
	if setup != nil {
		if err := setup(p); err != nil {
			return Result{}, err
		}
	}
	rt := New(cfg)
	if err := p.Run(rt); err != nil {
		return Result{}, err
	}
	return Result{Stats: rt.Finish(), Program: p, Trace: rt.Trace()}, nil
}
