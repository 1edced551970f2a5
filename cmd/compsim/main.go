// Command compsim runs a MiniC program on the simulated CPU + Xeon Phi
// platform and reports the execution statistics, optionally optimizing the
// program first and optionally dumping the event timeline.
//
// Usage:
//
//	compsim file.c                  # run as written
//	compsim -optimize file.c        # run through the COMP compiler first
//	compsim -optimize -blocks auto file.c  # pick the block count by measurement
//	compsim -tune file.c            # pick pipeline + blocks with the cost-model tuner
//	compsim -tune -tune-model m.json file.c  # persist the tuner's learned model
//	compsim -passes merge,streaming file.c # explicit pass pipeline (implies -optimize)
//	compsim -cpu file.c             # strip offload pragmas, run host-only
//	compsim -streams 4 file.c       # run 4 concurrent copies on 4 device streams
//	compsim -streams 4 -requests 8 file.c  # 8 queued requests over 4 streams
//	compsim -trace out.json file.c  # dump the Chrome trace_event timeline
//	compsim -timeline file.c        # print an ASCII timeline
//	compsim -spans file.c           # print the raw span list
//	compsim -report file.c          # print derived utilization metrics
//	compsim -faults 0.2 file.c      # inject faults at rate 0.2 per operation
//
// A -trace file loads directly in chrome://tracing or https://ui.perfetto.dev.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"comp/internal/cli"
	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/sim/fault"
	"comp/internal/sim/metrics"
	tunepkg "comp/internal/tune"
	"comp/internal/workloads"
)

func main() {
	optimize := flag.Bool("optimize", false, "apply the COMP optimizations before running")
	cpuOnly := flag.Bool("cpu", false, "strip offload pragmas and run on the host model only")
	trace := flag.String("trace", "", "write the timeline as Chrome trace_event JSON to this file (\"-\" = stdout)")
	timeline := flag.Bool("timeline", false, "print an ASCII timeline of the run")
	spans := flag.Bool("spans", false, "print the raw simulated span list")
	report := flag.Bool("report", false, "print derived per-resource utilization metrics")
	width := flag.Int("timeline-width", 100, "column width of the -timeline chart")
	blocks := flag.String("blocks", "0", "streaming block count when optimizing (0 = default, \"auto\" = tune by measurement)")
	passes := flag.String("passes", "", "explicit pass pipeline `spec`, e.g. \"merge,regularize,streaming\" (implies -optimize)")
	streams := flag.Int("streams", 1, "device streams; >1 runs concurrent copies through the multi-stream scheduler")
	requests := flag.Int("requests", 0, "concurrent requests for the scheduler (0 = one per stream)")
	faults := flag.Float64("faults", 0, "uniform fault injection rate in [0,1] for DMA/launch/hang/alloc (0 = off)")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
	tuneFlag := flag.Bool("tune", false, "pick the pass pipeline and block count with the cost-model tuner before running (overrides -optimize/-passes/-blocks)")
	tuneModel := flag.String("tune-model", "", "JSON `file` the -tune learned model is loaded from and saved back to")
	execMode := cli.ExecFlag(flag.CommandLine)
	flag.Parse()

	if code := cli.SetExec("compsim", *execMode, os.Stderr); code != 0 {
		os.Exit(code)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: compsim [flags] file.c")
		fmt.Fprintln(os.Stderr, "  e.g. compsim -optimize -blocks auto file.c     (tune block count by measurement)")
		fmt.Fprintln(os.Stderr, "       compsim -passes merge,streaming file.c   (explicit pass pipeline)")
		fmt.Fprintln(os.Stderr, "       compsim -streams 4 -requests 8 file.c    (8 requests over 4 device streams)")
		fmt.Fprintf(os.Stderr, "  known passes: %v\n", pass.KnownPasses())
		flag.PrintDefaults()
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	src := string(raw)

	cfg := runtime.DefaultConfig()
	if *faults != 0 {
		cfg.Faults = fault.Uniform(*faultSeed, *faults)
	}
	if err := cfg.Validate(); err != nil {
		fail(err)
	}

	if *cpuOnly {
		f, err := minic.Parse(src)
		if err != nil {
			fail(err)
		}
		workloads.StripOffload(f)
		src = minic.Print(f)
	} else if *tuneFlag {
		src = tuneSource(src, cfg, *tuneModel)
	} else if *optimize || *passes != "" {
		nblocks, err := resolveBlocks(*blocks, src, cfg)
		if err != nil {
			fail(err)
		}
		opt := core.DefaultOptions()
		opt.Blocks = nblocks
		var res *core.Result
		if *passes != "" {
			res, err = core.OptimizeSpec(src, *passes, opt.PassConfig())
		} else {
			res, err = core.Optimize(src, opt)
		}
		if err != nil {
			fail(err)
		}
		for _, a := range res.Report.Applied {
			fmt.Fprintf(os.Stderr, "applied: %s\n", a)
		}
		src = res.Source()
	}

	nReq := *requests
	if nReq == 0 {
		nReq = *streams
	}
	if *streams > 1 || nReq > 1 {
		runScheduler(src, cfg, *streams, nReq, *spans, *timeline, *report, *width, *trace)
		return
	}

	prog, err := interp.Compile(src)
	if err != nil {
		fail(err)
	}
	rt := runtime.New(cfg)
	if err := prog.Run(rt); err != nil {
		fail(err)
	}
	st := rt.Finish()
	if out := prog.Output(); out != "" {
		fmt.Print(out)
	}
	fmt.Printf("time            %v\n", st.Time)
	fmt.Printf("host busy       %v\n", st.HostBusy)
	fmt.Printf("device busy     %v\n", st.DeviceBusy)
	fmt.Printf("transfer busy   %v\n", st.TransferBusy)
	fmt.Printf("overlap         %v\n", st.Overlap)
	fmt.Printf("kernel launches %d\n", st.KernelLaunches)
	fmt.Printf("dma transfers   %d\n", st.Transfers)
	fmt.Printf("bytes in/out    %d / %d\n", st.BytesIn, st.BytesOut)
	fmt.Printf("peak device mem %d bytes\n", st.PeakDeviceBytes)
	if *faults > 0 {
		fmt.Printf("faults injected %d\n", st.FaultsInjected)
		fmt.Printf("retries         %d\n", st.Retries)
		fmt.Printf("watchdog fires  %d\n", st.WatchdogFires)
	}
	for _, w := range st.Fallbacks {
		fmt.Printf("FALLBACK: %s\n", w)
	}
	for _, w := range st.FaultWarnings {
		fmt.Printf("FAULT: %s\n", w)
	}
	for _, w := range st.RaceWarnings {
		fmt.Printf("WARNING: %s\n", w)
	}
	for _, w := range st.DeadlockWarnings {
		fmt.Printf("WARNING: %s\n", w)
	}
	dumpTrace(rt.Trace(), st.Time, *spans, *timeline, *report, *width, *trace)
}

// tuneSource runs the cost-model tuner on the program (probing candidate
// pipelines by simulated execution on the same platform configuration the
// real run uses, minus fault injection noise) and returns the winning
// compilation. With a model path the learned predictor persists across
// invocations.
func tuneSource(src string, cfg runtime.Config, modelPath string) string {
	model := tunepkg.NewModel()
	if modelPath != "" {
		var err error
		if model, err = tunepkg.LoadModel(modelPath); err != nil {
			fail(err)
		}
	}
	probeCfg := cfg
	probeCfg.Faults = fault.Config{}
	probeCfg.DisableTrace = true
	d, err := core.TuneSource(&tunepkg.Tuner{Model: model}, flag.Arg(0), src, probeCfg, nil)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "tuned: %s\n", d.Remark().Reason)
	if modelPath != "" {
		if err := model.Save(modelPath); err != nil {
			fail(err)
		}
	}
	res, err := core.OptimizeTuned(src, &d.TuneDecision)
	if err != nil {
		fail(err)
	}
	for _, a := range res.Report.Applied {
		fmt.Fprintf(os.Stderr, "applied: %s\n", a)
	}
	return res.Source()
}

// resolveBlocks parses the -blocks flag. "auto" tunes by measurement
// through core's shared recipe: one run of the program as written seeds
// the §III-B model, then tune.ClimbBlocks probes optimized runs at
// candidate counts and keeps the fastest.
func resolveBlocks(flagVal, src string, cfg runtime.Config) (int, error) {
	if flagVal != "auto" {
		n, err := strconv.Atoi(flagVal)
		if err != nil {
			return 0, fmt.Errorf("-blocks must be an integer or \"auto\": %v", err)
		}
		return n, nil
	}
	m, err := core.NewMeasurer(src, cfg, nil)
	if err != nil {
		return 0, err
	}
	tuned, bl, err := m.ClimbBlocks("")
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "tuned blocks: %d (model seed %d, %d probes, best %v)\n",
		tuned.Blocks, bl.Blocks(), tuned.Probes, tuned.Time)
	return tuned.Blocks, nil
}

// runScheduler executes n concurrent copies of the program through the
// multi-stream scheduler and prints global, per-stream and per-request
// summaries.
func runScheduler(src string, cfg runtime.Config, streams, n int, spans, timeline, report bool, width int, trace string) {
	s, err := runtime.NewScheduler(cfg, streams)
	if err != nil {
		fail(err)
	}
	for i := 0; i < n; i++ {
		p, err := interp.Compile(src)
		if err != nil {
			fail(err)
		}
		s.Submit(runtime.Request{Label: fmt.Sprintf("req-%02d", i), Program: p})
	}
	res, err := s.Run()
	if err != nil {
		fail(err)
	}
	st := res.Stats
	fmt.Printf("time                 %v\n", st.Time)
	fmt.Printf("cross-stream overlap %v\n", st.CrossStreamOverlap)
	fmt.Printf("transfer busy        %v\n", st.TransferBusy)
	fmt.Printf("kernel launches      %d\n", st.KernelLaunches)
	fmt.Printf("dma transfers        %d\n", st.Transfers)
	fmt.Printf("bytes in/out         %d / %d\n", st.BytesIn, st.BytesOut)
	fmt.Printf("peak device mem      %d bytes\n", st.PeakDeviceBytes)
	if st.FaultsInjected > 0 {
		fmt.Printf("faults injected      %d\n", st.FaultsInjected)
		fmt.Printf("retries              %d\n", st.Retries)
		fmt.Printf("watchdog fires       %d\n", st.WatchdogFires)
	}
	for _, ss := range st.Streams {
		fmt.Printf("stream %d: cores=%d threads=%d requests=%d busy=%v host=%v overlap=%v queue-wait=%v launches=%d\n",
			ss.StreamID, ss.Cores, ss.Threads, ss.Requests, ss.DeviceBusy, ss.HostBusy,
			ss.Overlap, ss.QueueWait, ss.KernelLaunches)
	}
	for _, rq := range st.Requests {
		fmt.Printf("request %s: stream=%d wait=%v start=%v end=%v\n",
			rq.Label, rq.StreamID, rq.QueueWait, rq.Start, rq.End)
		for _, w := range rq.Fallbacks {
			fmt.Printf("  FALLBACK: %s\n", w)
		}
		for _, w := range rq.FaultWarnings {
			fmt.Printf("  FAULT: %s\n", w)
		}
		for _, w := range rq.RaceWarnings {
			fmt.Printf("  WARNING: %s\n", w)
		}
		for _, w := range rq.DeadlockWarnings {
			fmt.Printf("  WARNING: %s\n", w)
		}
	}
	dumpTrace(res.Trace, st.Time, spans, timeline, report, width, trace)
}

// dumpTrace serves the timeline flags shared by both execution paths.
func dumpTrace(tr *engine.Trace, makespan engine.Duration, spans, timeline, report bool, width int, trace string) {
	if spans {
		fmt.Print(tr.String())
	}
	if timeline {
		tr.Timeline(os.Stdout, width)
	}
	if report {
		fmt.Print(metrics.FromTrace(tr, makespan).Format())
	}
	if trace != "" {
		if err := writeChromeTrace(trace, tr); err != nil {
			fail(err)
		}
	}
}

// writeChromeTrace dumps the trace in Chrome trace_event JSON to the given
// path, or to stdout for "-".
func writeChromeTrace(path string, tr *engine.Trace) error {
	if path == "-" {
		return tr.ChromeJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.ChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compsim:", err)
	os.Exit(1)
}
