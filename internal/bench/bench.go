// Package bench regenerates every table and figure in the paper's
// evaluation (§VI): Figure 1 (naive offload vs CPU), Figure 4
// (transfer:compute ratios), Figures 10/11 (overall and relative
// speedups), Figure 12 (data streaming), Figure 13 (memory usage),
// Figure 14 (offload merging), Figure 15 (regularization), Table II
// (per-benchmark applicability and speedups) and Table III (shared
// memory). It also provides the §III-B block-size sweep and the design
// ablations called out in DESIGN.md.
//
// Methodology mirrors the paper: each optimization is measured in
// isolation against the unoptimized MIC version (Figures 12–15); the
// combined optimizations are measured for Figures 10/11. The paper sweeps
// streaming block counts N in {10, 20, 40, 50} and reports the best; here
// tune.ClimbBlocks climbs a widened ladder by measurement, and
// SweepStreaming keeps the exhaustive sweep as its oracle.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"comp/internal/core"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/sim/metrics"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// Cell is one measured value.
type Cell struct {
	Value float64
	// Note marks qualitative results ("DNF", "n/a").
	Note string
}

// Row is one benchmark's line in a figure.
type Row struct {
	Name  string
	Cells map[string]Cell
}

// Figure is one regenerated table/figure.
type Figure struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// AddRow appends a row.
func (f *Figure) AddRow(name string, cells map[string]Cell) {
	f.Rows = append(f.Rows, Row{Name: name, Cells: cells})
}

// Mean returns the average of a column over rows that have it.
func (f *Figure) Mean(col string) float64 {
	var sum float64
	var n int
	for _, r := range f.Rows {
		if c, ok := r.Cells[col]; ok && c.Note == "" {
			sum += c.Value
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Cell returns a named cell.
func (f *Figure) Cell(row, col string) (Cell, bool) {
	for _, r := range f.Rows {
		if r.Name == row {
			c, ok := r.Cells[col]
			return c, ok
		}
	}
	return Cell{}, false
}

// Format renders the figure as an aligned text table.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	width := 14
	fmt.Fprintf(&b, "%-*s", width, "benchmark")
	for _, c := range f.Columns {
		fmt.Fprintf(&b, " %12s", c)
	}
	b.WriteByte('\n')
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-*s", width, r.Name)
		for _, col := range f.Columns {
			c, ok := r.Cells[col]
			switch {
			case !ok:
				fmt.Fprintf(&b, " %12s", "-")
			case c.Note != "":
				fmt.Fprintf(&b, " %12s", c.Note)
			default:
				fmt.Fprintf(&b, " %12.2f", c.Value)
			}
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Runner executes and caches benchmark runs.
type Runner struct {
	results  map[string]runtime.Result
	shared   map[string]workloads.SharedResult
	traceDir string
}

// NewRunner creates an empty cache.
func NewRunner() *Runner {
	return &Runner{
		results: map[string]runtime.Result{},
		shared:  map[string]workloads.SharedResult{},
	}
}

// SetTraceDir makes every subsequent (uncached) run dump its execution
// timeline as <key>.trace.json (Chrome trace_event format, loadable in
// Perfetto) plus a <key>.report.json derived-metrics summary into dir, so
// each ablation's timeline can be inspected, not just its aggregates.
func (r *Runner) SetTraceDir(dir string) { r.traceDir = dir }

// dumpTrace writes the timeline and metrics report for one run; failures
// are reported but do not abort the measurement.
func (r *Runner) dumpTrace(key string, res runtime.Result) {
	if r.traceDir == "" || res.Trace == nil {
		return
	}
	if err := os.MkdirAll(r.traceDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace dir: %v\n", err)
		return
	}
	base := filepath.Join(r.traceDir, sanitizeKey(key))
	tf, err := os.Create(base + ".trace.json")
	if err == nil {
		err = res.Trace.ChromeJSON(tf)
		if cerr := tf.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		var rf *os.File
		if rf, err = os.Create(base + ".report.json"); err == nil {
			err = metrics.FromTrace(res.Trace, res.Stats.Time).WriteJSON(rf)
			if cerr := rf.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: trace dump %s: %v\n", key, err)
	}
}

// sanitizeKey maps a cache key to a safe file name.
func sanitizeKey(key string) string {
	return strings.Map(func(c rune) rune {
		switch c {
		case '|', '/', '\\', ':', ' ':
			return '_'
		}
		return c
	}, key)
}

func optKey(o core.Options) string {
	return fmt.Sprintf("s%v.m%v.r%v.rm%v.p%v.b%d", o.Streaming, o.Merge, o.Regularize, o.ReduceMemory, o.Persistent, o.Blocks)
}

// run executes (and caches) one benchmark variant.
func (r *Runner) run(b *workloads.Benchmark, variant workloads.Variant, opt core.Options) (runtime.Result, error) {
	key := fmt.Sprintf("%s|%d|%s", b.Name, variant, optKey(opt))
	if res, ok := r.results[key]; ok {
		return res, nil
	}
	res, err := b.Run(workloads.RunOptions{Variant: variant, Opt: opt})
	if err != nil {
		return runtime.Result{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	r.results[key] = res
	r.dumpTrace(key, res)
	return res, nil
}

// runShared executes (and caches) one shared-memory run.
func (r *Runner) runShared(b *workloads.Benchmark, mech workloads.Mechanism, scale float64) (workloads.SharedResult, error) {
	key := fmt.Sprintf("%s|%v|%v", b.Name, mech, scale)
	if res, ok := r.shared[key]; ok {
		return res, nil
	}
	res, err := workloads.RunShared(b, mech, scale)
	if err != nil {
		return workloads.SharedResult{}, err
	}
	r.shared[key] = res
	return res, nil
}

// streamingOptions returns the option set measuring streaming alone for a
// benchmark: regularization is kept for nn (streaming only becomes legal
// after reordering, §IV), matching the paper's evaluation.
func streamingOptions(b *workloads.Benchmark, blocks int) core.Options {
	o := core.Options{Streaming: true, ReduceMemory: true, Persistent: true, Blocks: blocks}
	if b.Has("regularization") {
		o.Regularize = true
	}
	return o
}

// streamingBaseline returns what streaming is measured against: the naive
// version, except for nn where the baseline already includes
// regularization (so the quotient isolates streaming).
func (r *Runner) streamingBaseline(b *workloads.Benchmark) (runtime.Result, error) {
	if b.Has("regularization") {
		return r.run(b, workloads.MICOptimized, core.Options{Regularize: true})
	}
	return r.run(b, workloads.MICNaive, core.Options{})
}

// bestStreaming returns the streamed run at the block count TuneStreaming
// picks, and that count.
func (r *Runner) bestStreaming(b *workloads.Benchmark) (runtime.Result, int, error) {
	tr, err := r.TuneStreaming(b)
	if err != nil {
		return runtime.Result{}, 0, err
	}
	res, err := r.run(b, workloads.MICOptimized, streamingOptions(b, tr.Blocks))
	if err != nil {
		return runtime.Result{}, 0, err
	}
	return res, tr.Blocks, nil
}

// SweepStreaming tries every block count on tune.Ladder and returns the
// fastest streamed run and its count. It is the oracle the climb's
// choices are measured against.
func (r *Runner) SweepStreaming(b *workloads.Benchmark) (runtime.Result, int, error) {
	var best runtime.Result
	bestN := 0
	for _, n := range tune.Ladder() {
		res, err := r.run(b, workloads.MICOptimized, streamingOptions(b, n))
		if err != nil {
			return runtime.Result{}, 0, err
		}
		if bestN == 0 || res.Stats.Time < best.Stats.Time {
			best, bestN = res, n
		}
	}
	return best, bestN, nil
}

// TuneStreaming picks a benchmark's streaming block count with
// tune.ClimbBlocks, seeded from the §III-B model evaluated on the
// benchmark's streaming baseline. Every probe runs through the Runner's
// cache, so a repeat climb runs no simulation.
func (r *Runner) TuneStreaming(b *workloads.Benchmark) (tune.BlockChoice, error) {
	base, err := r.streamingBaseline(b)
	if err != nil {
		return tune.BlockChoice{}, err
	}
	launch := runtime.DefaultConfig().MIC.LaunchOverhead
	return tune.ClimbBlocks(tune.BaselineFromStats(base.Stats, launch), func(blocks int) (engine.Duration, error) {
		res, err := r.run(b, workloads.MICOptimized, streamingOptions(b, blocks))
		if err != nil {
			return 0, err
		}
		return res.Stats.Time, nil
	})
}

// combinedOptions is the full optimization set used for Figures 10/11,
// with the benchmark's best streaming block count.
func (r *Runner) combined(b *workloads.Benchmark) (runtime.Result, error) {
	if !b.Has("streaming") {
		return r.run(b, workloads.MICOptimized, core.DefaultOptions())
	}
	_, n, err := r.bestStreaming(b)
	if err != nil {
		return runtime.Result{}, err
	}
	opt := core.DefaultOptions()
	opt.Blocks = n
	return r.run(b, workloads.MICOptimized, opt)
}

// speedup computes a/b as a ratio of times (how much faster b is than a).
func speedup(a, b runtime.Result) float64 {
	if b.Stats.Time == 0 {
		return 0
	}
	return float64(a.Stats.Time) / float64(b.Stats.Time)
}

// minicBenchmarks returns the ten interpreter-driven benchmarks.
func minicBenchmarks() []*workloads.Benchmark {
	var out []*workloads.Benchmark
	for _, b := range workloads.All() {
		if !b.SharedMem {
			out = append(out, b)
		}
	}
	return out
}

// sharedFig1 computes the Figure 1/10 entries for a shared-memory
// benchmark: CPU vs MYO (the naive MIC path) and CPU vs COMP.
func (r *Runner) sharedSpeedups(b *workloads.Benchmark) (naive, opt Cell, err error) {
	cpu, err := r.runShared(b, workloads.MechCPU, 1.0)
	if err != nil {
		return Cell{}, Cell{}, err
	}
	if m, merr := r.runShared(b, workloads.MechMYO, 1.0); merr != nil {
		naive = Cell{Note: "DNF"}
	} else {
		naive = Cell{Value: float64(cpu.Time) / float64(m.Time)}
	}
	c, err := r.runShared(b, workloads.MechCOMP, 1.0)
	if err != nil {
		return Cell{}, Cell{}, err
	}
	opt = Cell{Value: float64(cpu.Time) / float64(c.Time)}
	return naive, opt, nil
}

// SortedCacheKeys aids debugging of the memoization layer.
func (r *Runner) SortedCacheKeys() []string {
	keys := make([]string, 0, len(r.results))
	for k := range r.results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
