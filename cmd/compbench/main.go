// Command compbench regenerates the paper's evaluation: every figure and
// table from §VI plus the design ablations.
//
// Usage:
//
//	compbench                 # all figures and tables
//	compbench -only fig12     # one figure (fig1, fig4, fig10..fig15, table2, table3)
//	compbench -ablations      # block-size sweep and design ablations
//	compbench -streams 4      # multi-stream scheduler + autotuner report
//	compbench -serve          # serving-layer load report (steady + overload)
//	compbench -fleet          # sharded fleet scenario table (steady, overload, device-loss)
//	compbench -scenarios      # built-in scenario table: admitted/rejected/deadline-miss/fault-recovery
//	compbench -tune           # cost-model tuner vs exhaustive oracle, cold/warm/held-out
//	compbench -vmbench        # bytecode VM vs tree-walker on every workload
//	compbench -columnar       # columnar batch tier vs scalar VM
//	compbench -sweep          # pick block counts by exhaustive sweep (oracle)
//	compbench -passes merge,streaming  # per-pass applied/skipped table for a pipeline spec
//
// Output files. Every report mode also writes a committed JSON artifact
// (pass "-" to print to stdout only); these are the goldens the env-gated
// regression guards in internal/bench compare fresh runs against:
//
//	-streams   → -streams-out    (default BENCH_streams.json)
//	-fleet     → -fleet-out      (default BENCH_fleet.json)
//	-vmbench   → -vmbench-out    (default BENCH_vm.json)
//	-columnar  → -columnar-out   (default BENCH_columnar.json)
//	-tune      → -tune-out       (default BENCH_tune.json)
//	             -tune-model     (default TUNE_model.json, the trained predictor)
//	-serve     → -serve-out      (default "-": stdout only, no committed golden)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"comp/internal/bench"
	"comp/internal/cli"
)

func main() {
	only := flag.String("only", "", "regenerate a single figure/table by id (e.g. fig12, table3)")
	ablations := flag.Bool("ablations", false, "run the design ablations instead of the paper figures")
	traceDir := flag.String("tracedir", "", "dump each run's Chrome trace + metrics report into this directory")
	streams := flag.Int("streams", 0, "run the multi-stream scheduler report with this many streams (0 = off)")
	requests := flag.Int("requests", 0, "concurrent requests per workload for -streams (0 = streams)")
	streamsOut := flag.String("streams-out", "BENCH_streams.json", "write the -streams report as JSON to this file (\"-\" = stdout only)")
	sweep := flag.Bool("sweep", false, "use the exhaustive block-count sweep instead of the autotuner")
	fleetMode := flag.Bool("fleet", false, "replay the deterministic fleet scenario table (steady, overload, device-loss) against a sharded multi-device fleet")
	fleetHosts := flag.Int("fleet-hosts", 2, "simulated hosts for -fleet")
	fleetDevices := flag.Int("fleet-devices", 2, "devices per host for -fleet")
	fleetRequests := flag.Int("fleet-requests", 48, "requests per scenario for -fleet")
	fleetOut := flag.String("fleet-out", "BENCH_fleet.json", "write the -fleet report as JSON to this file (\"-\" = stdout only)")
	serveMode := flag.Bool("serve", false, "drive the offload serving layer with a synthetic client fleet")
	serveClients := flag.Int("serve-clients", 32, "concurrent clients for -serve")
	servePer := flag.Int("serve-requests", 2, "requests per client for -serve")
	serveOut := flag.String("serve-out", "-", "write the -serve report as JSON to this file (\"-\" = stdout only)")
	passes := flag.String("passes", "", "compile every benchmark under this pipeline `spec` (e.g. \"merge,regularize,streaming\") and print the per-pass applied/skipped table with full remark trails")
	scenarios := flag.Bool("scenarios", false, "replay every built-in serving scenario (internal/scenario) and print the per-scenario admission/fault-recovery table")
	scenarioSeed := flag.Int64("scenario-seed", 1, "trace seed for -scenarios")
	execMode := cli.ExecFlag(flag.CommandLine)
	vmbench := flag.Bool("vmbench", false, "benchmark the bytecode VM against the tree-walker on every workload")
	vmbenchIters := flag.Int("vmbench-iters", 3, "full runs per engine for -vmbench (best-of)")
	vmbenchOut := flag.String("vmbench-out", "BENCH_vm.json", "write the -vmbench report as JSON to this file (\"-\" = stdout only)")
	columnar := flag.Bool("columnar", false, "benchmark the columnar batch tier against the scalar VM on every workload plus the element-wise kernel set (AoS vs SoA included)")
	columnarIters := flag.Int("columnar-iters", 3, "full runs per mode for -columnar (best-of)")
	columnarOut := flag.String("columnar-out", "BENCH_columnar.json", "write the -columnar report as JSON to this file (\"-\" = stdout only)")
	tuneMode := flag.Bool("tune", false, "run the cost-model tuner against the exhaustive oracle on every workload (cold, warm-model repeat, held-out machine)")
	tuneOut := flag.String("tune-out", "BENCH_tune.json", "write the -tune report as JSON to this file (\"-\" = stdout only)")
	tuneModel := flag.String("tune-model", "TUNE_model.json", "write the -tune trained predictor model to this file (\"-\" = don't write)")
	flag.Parse()

	if code := cli.SetExec("compbench", *execMode, os.Stderr); code != 0 {
		os.Exit(code)
	}

	r := bench.NewRunner()
	r.UseSweep = *sweep
	if *traceDir != "" {
		r.SetTraceDir(*traceDir)
	}

	if *tuneMode {
		rep, model, err := r.TuneBench()
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		writeJSON(*tuneOut, rep.WriteJSON)
		if *tuneModel != "-" {
			if err := model.Save(*tuneModel); err != nil {
				fmt.Fprintln(os.Stderr, "compbench:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *tuneModel)
		}
		return
	}

	if *columnar {
		rep, err := r.ColumnarBench(*columnarIters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		writeJSON(*columnarOut, rep.WriteJSON)
		return
	}

	if *vmbench {
		rep, err := r.VMBench(*vmbenchIters)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		writeJSON(*vmbenchOut, rep.WriteJSON)
		return
	}

	if *fleetMode {
		rep, err := r.FleetLoad(*fleetHosts, *fleetDevices, *fleetRequests)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		writeJSON(*fleetOut, rep.WriteJSON)
		return
	}

	if *scenarios {
		fig, err := r.Scenarios(*scenarioSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Println(fig.Format())
		return
	}

	if *passes != "" {
		fig, err := r.PassFigure(*passes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Println(fig.Format())
		return
	}

	if *serveMode {
		ns := *streams
		if ns == 0 {
			ns = 4
		}
		rep, err := r.ServeLoad(ns, *serveClients, *servePer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		writeJSON(*serveOut, rep.WriteJSON)
		return
	}

	if *streams > 0 {
		n := *requests
		if n == 0 {
			n = *streams
		}
		rep, err := r.Streams(*streams, n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "compbench:", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		writeJSON(*streamsOut, rep.WriteJSON)
		return
	}

	var figs []*bench.Figure
	var err error
	switch {
	case *ablations:
		figs, err = r.Ablations()
	case *only != "":
		figs, err = one(r, *only)
	default:
		figs, err = r.All()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compbench:", err)
		os.Exit(1)
	}
	for _, f := range figs {
		fmt.Println(f.Format())
	}
}

// writeJSON writes one report to path via its WriteJSON method, exiting on
// failure; "-" skips the file (the table already went to stdout).
func writeJSON(path string, write func(io.Writer) error) {
	if path == "-" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compbench:", err)
		os.Exit(1)
	}
	if err := write(f); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func one(r *bench.Runner, id string) ([]*bench.Figure, error) {
	gens := map[string]func() (*bench.Figure, error){
		"fig1":   r.Figure1,
		"fig4":   r.Figure4,
		"fig10":  r.Figure10,
		"fig11":  r.Figure11,
		"fig12":  r.Figure12,
		"fig13":  r.Figure13,
		"fig14":  r.Figure14,
		"fig15":  r.Figure15,
		"table2": r.Table2,
		"table3": r.Table3,
	}
	gen, ok := gens[id]
	if !ok {
		return nil, fmt.Errorf("unknown figure %q (try fig1, fig4, fig10..fig15, table2, table3)", id)
	}
	f, err := gen()
	if err != nil {
		return nil, err
	}
	return []*bench.Figure{f}, nil
}
