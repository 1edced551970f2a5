package bench

import (
	"fmt"

	"comp/internal/core"
	"comp/internal/myo"
	"comp/internal/sim/engine"
	"comp/internal/sim/machine"
	"comp/internal/sim/pcie"
	"comp/internal/transform"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// thin aliases keeping the ablation code readable.
var (
	pcieNew = func(sim *engine.Sim) *pcie.Bus { return pcie.New(sim, pcie.Default()) }
	pcieH2D = pcie.HostToDevice
)

// BlockSizeSweep measures blackscholes streamed at each block count and
// compares with the §III-B analytic model's prediction, reproducing the
// paper's finding that the best N for most benchmarks lies between 10 and
// 40 (scaled here; see machine params).
func (r *Runner) BlockSizeSweep() (*Figure, error) {
	f := &Figure{
		ID:      "blocksweep",
		Title:   "streamed time vs block count N (blackscholes) and the SIII-B model",
		Columns: []string{"time-us", "model-us"},
	}
	b, err := workloads.Get("blackscholes")
	if err != nil {
		return nil, err
	}
	naive, err := r.run(b, workloads.MICNaive, core.Options{})
	if err != nil {
		return nil, err
	}
	k := machine.XeonPhi().LaunchOverhead
	prof := tune.BaselineFromStats(naive.Stats, k)
	for _, n := range tune.Ladder() {
		res, err := r.run(b, workloads.MICOptimized, streamingOptions(b, n))
		if err != nil {
			return nil, err
		}
		model := transform.ModelTime(prof.Transfer, prof.Compute, k, n)
		f.AddRow(fmt.Sprintf("N=%d", n), map[string]Cell{
			"time-us":  {Value: res.Stats.Time.Seconds() * 1e6},
			"model-us": {Value: model.Seconds() * 1e6},
		})
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("model optimum N* = %d (D=%v C=%v K=%v)", prof.Blocks(), prof.Transfer, prof.Compute, k),
		"the model excludes per-DMA setup and host time, so measured times sit above it")
	return f, nil
}

// PersistentKernelAblation measures streaming with and without MIC-thread
// reuse (§III-C) on the streaming benchmarks.
func (r *Runner) PersistentKernelAblation() (*Figure, error) {
	f := &Figure{
		ID:      "ablate-persist",
		Title:   "persistent kernels (thread reuse) vs relaunch per block",
		Columns: []string{"relaunch-us", "persist-us", "gain"},
	}
	for _, name := range streamingBenchmarks {
		b, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		_, n, err := r.bestStreaming(b)
		if err != nil {
			return nil, err
		}
		opts := streamingOptions(b, n)
		opts.Persistent = false
		relaunch, err := r.run(b, workloads.MICOptimized, opts)
		if err != nil {
			return nil, err
		}
		opts.Persistent = true
		persist, err := r.run(b, workloads.MICOptimized, opts)
		if err != nil {
			return nil, err
		}
		f.AddRow(name, map[string]Cell{
			"relaunch-us": {Value: relaunch.Stats.Time.Seconds() * 1e6},
			"persist-us":  {Value: persist.Stats.Time.Seconds() * 1e6},
			"gain":        {Value: speedup(relaunch, persist)},
		})
	}
	return f, nil
}

// MemoryReductionAblation compares the Figure 5(b) whole-array streaming
// against the Figure 5(c) double-buffer variant: same pipelining, very
// different device footprints.
func (r *Runner) MemoryReductionAblation() (*Figure, error) {
	f := &Figure{
		ID:      "ablate-membuf",
		Title:   "whole-array streaming (5b) vs double buffering (5c)",
		Columns: []string{"time-5b-us", "time-5c-us", "mem-5b-kb", "mem-5c-kb"},
	}
	for _, name := range streamingBenchmarks {
		b, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		_, n, err := r.bestStreaming(b)
		if err != nil {
			return nil, err
		}
		opts := streamingOptions(b, n)
		opts.ReduceMemory = false
		whole, err := r.run(b, workloads.MICOptimized, opts)
		if err != nil {
			return nil, err
		}
		opts.ReduceMemory = true
		double, err := r.run(b, workloads.MICOptimized, opts)
		if err != nil {
			return nil, err
		}
		f.AddRow(name, map[string]Cell{
			"time-5b-us": {Value: whole.Stats.Time.Seconds() * 1e6},
			"time-5c-us": {Value: double.Stats.Time.Seconds() * 1e6},
			"mem-5b-kb":  {Value: float64(whole.Stats.PeakDeviceBytes) / 1024},
			"mem-5c-kb":  {Value: float64(double.Stats.PeakDeviceBytes) / 1024},
		})
	}
	return f, nil
}

// TranslationAblation isolates §V-B's pointer-translation cost: the time
// the device spends translating 10 million shared-pointer dereferences
// with the bid-augmented scheme (constant time) versus the linear
// base-address search, as the structure grows across more segments. The
// paper rejects the search because its worst case is linear in the number
// of buffers; the gap here is exactly that factor.
func (r *Runner) TranslationAblation() (*Figure, error) {
	f := &Figure{
		ID:      "ablate-xlate",
		Title:   "device time to translate 10M dereferences: bid field vs linear search",
		Columns: []string{"bid-us", "linear-us", "slowdown"},
	}
	mic := machine.XeonPhi()
	const derefs = 10e6
	for _, segments := range []int{4, 16, 64, 256} {
		bidFlops := derefs * translationCost
		linFlops := derefs * float64(segments) / 2 * searchCostPerSegment
		bid := mic.WorkTime(bidFlops, 0, 0, false, machine.DefaultMICThreads)
		lin := mic.WorkTime(linFlops, 0, 0, false, machine.DefaultMICThreads)
		f.AddRow(fmt.Sprintf("%d-segments", segments), map[string]Cell{
			"bid-us":    {Value: bid.Seconds() * 1e6},
			"linear-us": {Value: lin.Seconds() * 1e6},
			"slowdown":  {Value: float64(lin) / float64(bid)},
		})
	}
	f.Notes = append(f.Notes, "freqmine's structure spans 46 segments; ferret's 21 — both sit in the 10-40x slowdown band")
	return f, nil
}

// Costs per dereference, matching internal/workloads/sharedmem.go.
const (
	translationCost      = 3
	searchCostPerSegment = 2
)

// StreamingProfitability reports, for every MiniC benchmark, the §III-B
// model's view of whether streaming pays: the measured unoptimized D, C,
// the model optimum, and the predicted gain. Benchmarks the paper lists
// as not benefiting should predict gains near 1.
func (r *Runner) StreamingProfitability() (*Figure, error) {
	f := &Figure{
		ID:      "profitability",
		Title:   "SIII-B model: predicted streaming gain per benchmark",
		Columns: []string{"d-us", "c-us", "n-star", "pred-gain"},
	}
	k := machine.XeonPhi().LaunchOverhead
	for _, b := range minicBenchmarks() {
		naive, err := r.run(b, workloads.MICNaive, core.Options{})
		if err != nil {
			return nil, err
		}
		prof := tune.BaselineFromStats(naive.Stats, k)
		n := prof.Blocks()
		t1 := transform.ModelTime(prof.Transfer, prof.Compute, k, 1)
		tn := transform.ModelTime(prof.Transfer, prof.Compute, k, n)
		gain := 0.0
		if tn > 0 {
			gain = float64(t1) / float64(tn)
		}
		f.AddRow(b.Name, map[string]Cell{
			"d-us":      {Value: prof.Transfer.Seconds() * 1e6},
			"c-us":      {Value: prof.Compute.Seconds() * 1e6},
			"n-star":    {Value: float64(n)},
			"pred-gain": {Value: gain},
		})
	}
	return f, nil
}

// MYOPageSweep varies MYO's coherence granularity on the ferret structure
// (at the reduced input where MYO runs): larger pages amortize the fault
// cost but the mechanism stays far behind one bulk copy — the paper's
// observation that "page granularity is too small for a large data
// structure" while coarser granularity alone does not fix MYO.
func (r *Runner) MYOPageSweep() (*Figure, error) {
	f := &Figure{
		ID:      "ablate-myopage",
		Title:   "MYO transfer time vs page size (ferret structure, reduced input)",
		Columns: []string{"time-ms", "faults", "vs-bulk"},
	}
	ferret, err := workloads.Get("ferret")
	if err != nil {
		return nil, err
	}
	w := ferret.Shared
	scale := w.MYOScale
	totalBytes := int64(float64(w.TotalBytes) * scale)
	bulk := bulkTransferTime(totalBytes)
	for _, page := range []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10} {
		cfg := myo.DefaultConfig()
		cfg.PageBytes = page
		res, err := workloads.RunSharedMYOConfig(ferret, scale, cfg)
		if err != nil {
			return nil, err
		}
		f.AddRow(fmt.Sprintf("%dKiB", page/1024), map[string]Cell{
			"time-ms": {Value: res.Time.Seconds() * 1e3},
			"faults":  {Value: float64(res.Faults)},
			"vs-bulk": {Value: float64(res.Time) / float64(bulk)},
		})
	}
	return f, nil
}

// SegmentSweep varies the §V-A segment size: small segments waste little
// reserved memory but need more DMAs and more bids; large ones reserve
// more than small structures use. The default 4 MiB sits at the knee.
func (r *Runner) SegmentSweep() (*Figure, error) {
	f := &Figure{
		ID:      "ablate-segment",
		Title:   "shared-heap segment size: reserved memory vs DMA count (ferret)",
		Columns: []string{"segments", "reserved-mb", "used-mb", "time-ms"},
	}
	ferret, err := workloads.Get("ferret")
	if err != nil {
		return nil, err
	}
	for _, seg := range []int64{256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		res, err := workloads.RunSharedSegment(ferret, 1.0, seg)
		if err != nil {
			f.AddRow(fmt.Sprintf("%dKiB", seg/1024), map[string]Cell{
				"segments": {Note: "FAIL"},
			})
			continue
		}
		f.AddRow(fmt.Sprintf("%dKiB", seg/1024), map[string]Cell{
			"segments":    {Value: float64(res.Segments)},
			"reserved-mb": {Value: float64(res.Reserved) / (1 << 20)},
			"used-mb":     {Value: float64(res.Bytes) / (1 << 20)},
			"time-ms":     {Value: res.Time.Seconds() * 1e3},
		})
	}
	f.Notes = append(f.Notes, "256 KiB segments overflow the 1-byte bid space for ferret's 83 MB structure")
	return f, nil
}

// bulkTransferTime is the single-DMA reference for the page sweep.
func bulkTransferTime(bytes int64) engine.Duration {
	sim := engine.New()
	bus := pcieNew(sim)
	ev := bus.Transfer(pcieH2D, "bulk", bytes)
	sim.Run()
	return engine.Duration(ev.Time())
}

// Ablations runs every design ablation.
func (r *Runner) Ablations() ([]*Figure, error) {
	var out []*Figure
	for _, gen := range []func() (*Figure, error){
		r.BlockSizeSweep,
		r.PersistentKernelAblation,
		r.MemoryReductionAblation,
		r.TranslationAblation,
		r.StreamingProfitability,
		r.MYOPageSweep,
		r.SegmentSweep,
		r.ResilienceAblation,
	} {
		fig, err := gen()
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}
