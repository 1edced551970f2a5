// Package core is the COMP compiler driver: a thin compatibility layer
// over the pass manager (internal/pass). Options translates the paper's
// boolean knobs into a pipeline spec (merging → regularization →
// streaming, the profitable order); the manager runs the passes and
// records every decision as a structured remark, which Report re-renders
// for human output.
//
// This corresponds to the source-to-source tool the paper builds on the
// Apricot framework: input is offload-annotated source, output is
// transformed source (printable via minic.Print) plus the remark trail.
package core

import (
	"fmt"
	"strings"

	"comp/internal/minic"
	"comp/internal/pass"
)

// Options selects optimizations. The zero value disables everything;
// DefaultOptions enables the full pipeline.
type Options struct {
	// Streaming enables §III data streaming on legal offloaded loops.
	Streaming bool
	// ReduceMemory applies the §III-B double-buffer variant when streaming.
	ReduceMemory bool
	// Persistent enables §III-C MIC-thread reuse for streamed kernels.
	Persistent bool
	// Merge enables §III-C offload merging on host loops with multiple
	// inner offloads.
	Merge bool
	// Regularize enables the §IV transformations (loop splitting, array
	// reordering, AoS→SoA).
	Regularize bool
	// Blocks fixes the streaming block count; 0 uses
	// transform.DefaultBlocks. Measurer.ClimbBlocks chooses one by
	// measurement.
	Blocks int
}

// DefaultOptions enables every optimization.
func DefaultOptions() Options {
	return Options{
		Streaming:    true,
		ReduceMemory: true,
		Persistent:   true,
		Merge:        true,
		Regularize:   true,
	}
}

// Spec returns the pipeline spec equivalent to the boolean knobs, in the
// paper's profitable order. Compiling with Options and with the returned
// spec (plus PassConfig) yields byte-identical output by construction:
// both paths build the same manager.
func (o Options) Spec() string { return strings.Join(o.passNames(), ",") }

func (o Options) passNames() []string {
	var names []string
	if o.Merge {
		names = append(names, "merge")
	}
	if o.Regularize {
		names = append(names, "regularize")
	}
	if o.Streaming {
		names = append(names, "streaming")
	}
	return names
}

// PassConfig resolves the streaming knobs into the pass manager's config.
func (o Options) PassConfig() pass.Config {
	return pass.Config{Blocks: o.Blocks, ReduceMemory: o.ReduceMemory, Persistent: o.Persistent}
}

// Applied is the rendered view of one applied remark.
type Applied struct {
	Opt    string
	At     string
	Detail string
}

func (a Applied) String() string {
	return fmt.Sprintf("%s at %s: %s", a.Opt, a.At, a.Detail)
}

// Report summarizes a compilation. Remarks is the authoritative record —
// every pass decision with verdict and reason; Applied and Notes are
// rendered views kept for human-facing output.
type Report struct {
	Remarks pass.Remarks
	Applied []Applied
	Notes   []string
}

// ReportFromRemarks renders a remark trail into the view form.
func ReportFromRemarks(rs pass.Remarks) Report {
	rep := Report{Remarks: rs}
	for _, r := range rs {
		if r.Verdict.Applied() {
			op := r.Op
			if op == "" {
				op = r.Pass
			}
			rep.Applied = append(rep.Applied, Applied{Opt: op, At: r.Pos, Detail: r.Reason})
		} else {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s at %s: %s", r.Pass, r.Verdict, r.Pos, r.Reason))
		}
	}
	return rep
}

// Result is the output of Optimize.
type Result struct {
	File   *minic.File
	Report Report
}

// Source prints the transformed translation unit.
func (r *Result) Source() string { return minic.Print(r.File) }

// Optimize parses, checks, and optimizes a MiniC source text.
func Optimize(src string, opt Options) (*Result, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(f).Err(); err != nil {
		return nil, err
	}
	return OptimizeFile(f, opt)
}

// OptimizeFile optimizes a parsed and checked file in place by running
// the pipeline Options selects through the pass manager.
func OptimizeFile(f *minic.File, opt Options) (*Result, error) {
	m, err := pass.New(opt.passNames(), opt.PassConfig())
	if err != nil {
		return nil, err
	}
	remarks, err := m.Run(f)
	if err != nil {
		return nil, err
	}
	return &Result{File: f, Report: ReportFromRemarks(remarks)}, nil
}

// TunedSpec prefixes a decision's pipeline spec with the tune stage so the
// decision lands in the remark trail ("tune" alone when the tuner decided
// no pass is profitable).
func TunedSpec(d *pass.TuneDecision) string {
	if d == nil || d.Spec == "" {
		return "tune"
	}
	return "tune," + d.Spec
}

// OptimizeTuned compiles src under a tuner's decision: the decision's
// pipeline spec runs behind a leading tune stage that records the decision
// — predicted vs measured cost included — as a structured remark.
func OptimizeTuned(src string, d *pass.TuneDecision) (*Result, error) {
	return OptimizeSpec(src, TunedSpec(d), tunedConfig(d))
}

func tunedConfig(d *pass.TuneDecision) pass.Config {
	cfg := pass.DefaultConfig()
	cfg.Tuned = d
	if d != nil {
		cfg.Blocks = d.Blocks
	}
	return cfg
}

// OptimizeSpec parses, checks, and optimizes a MiniC source text under an
// explicit pipeline spec (see pass.ParseSpec) instead of boolean Options.
func OptimizeSpec(src, spec string, cfg pass.Config) (*Result, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := minic.Check(f).Err(); err != nil {
		return nil, err
	}
	return OptimizeFileSpec(f, spec, cfg)
}

// OptimizeFileSpec runs an explicit pipeline spec over a parsed and
// checked file in place.
func OptimizeFileSpec(f *minic.File, spec string, cfg pass.Config) (*Result, error) {
	m, err := pass.Parse(spec, cfg)
	if err != nil {
		return nil, err
	}
	remarks, err := m.Run(f)
	if err != nil {
		return nil, err
	}
	return &Result{File: f, Report: ReportFromRemarks(remarks)}, nil
}
