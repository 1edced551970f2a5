// Command compperf is the repository's host-side benchmark: what this Go
// program spends, per compile and per request, on the compile, serve,
// cold-plan and fleet paths. The simulated clock carries the paper's
// results; compperf measures the host clock, end to end and per layer, and
// holds every output to an independent oracle (the tree-walker on the
// pragma-stripped program).
//
// Usage:
//
//	compperf -workload compile -seed 1 -seconds 20      # one workload, end-to-end metrics
//	compperf -workload plan-cold -trace 1 -trace-out t.json  # per-layer metrics and a Chrome trace
//	compperf -seed 2                                     # every workload, each in a child process
//	compperf -agree dirA dirB                            # compare two sets of result files
//
// A run prints its result as one JSON line, last on standard output:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Diagnostics, sample counts and the traced run's span table go to
// standard error. A run whose outputs differ from the oracle exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"
)

// defaultSeconds is the timed phase's length unless -seconds says
// otherwise; BENCHMARK.json's run_seconds holds the same value.
const defaultSeconds = 20

// setupSamples is how many set-ups, each in its own process, setup_s is
// the median of.
const setupSamples = 5

// processStart is taken as the main package initializes, when the process
// has just started; setup_s runs from it.
var processStart = time.Now()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames()+" (empty = each in turn, in child processes)")
	seed := fs.Int64("seed", 1, "seed that draws the workload's inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run, reporting per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1, also write the spans as Chrome trace_event JSON to this file")
	agree := fs.Bool("agree", false, "compare two directories of result files: compperf -agree dirA dirB")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration -agree reads bounds from")
	setupOnlyFlag := fs.Bool("setup-only", false, "set the workload up, print the seconds from process start, as measured and scaled to the reference host, and exit (how a run measures setup_s)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *setupOnlyFlag {
		if err := setupOnly(*workload, *seed, processStart, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "compperf:", err)
			return 1
		}
		return 0
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "compperf: -agree needs two result directories")
			return 2
		}
		ok, err := runAgree(*benchFile, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "compperf:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "compperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "compperf: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	case *seconds <= 0:
		fmt.Fprintf(stderr, "compperf: -seconds %v must be positive\n", *seconds)
		return 2
	case *traceOut != "" && *traceFlag == 0:
		fmt.Fprintln(stderr, "compperf: -trace-out requires -trace 1")
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *traceFlag, *traceOut, stdout, stderr)
	}
	if _, err := findWorkload(*workload); err != nil {
		fmt.Fprintln(stderr, "compperf:", err)
		return 2
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		traceOut: *traceOut,
		started:  processStart,
		setups:   setupSamples,
		minTail:  minTailSamples,
	}
	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "compperf:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "compperf:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs each workload in its own child process with the same
// settings, so no workload's heap or caches leak into the next one's
// numbers. Each child prints its own result line; a trace file t.json
// becomes t.<workload>.json.
func runAll(seed int64, seconds float64, trace int, traceOut string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "compperf:", err)
		return 1
	}
	code := 0
	for _, w := range allWorkloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
		if traceOut != "" {
			args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ".json")+"."+w.name+".json")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "compperf: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}
