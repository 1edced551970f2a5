package pass

import (
	"fmt"

	"comp/internal/minic"
	"comp/internal/sim/engine"
)

// TuneDecision is the configuration the cost-model tuner (internal/tune)
// settled on for one compilation: the pipeline spec and streaming block
// count it chose, what the cost model predicted the makespan would
// be, and what the probe actually measured. The pass layer defines the
// type (rather than internal/tune) so the manager can emit the decision
// as a structured remark without importing the tuner.
type TuneDecision struct {
	// Spec is the chosen pass pipeline (e.g. "merge,regularize,streaming");
	// it may be empty when the tuner decided no pass is profitable.
	Spec string `json:"spec"`
	// Blocks is the chosen streaming block count.
	Blocks int `json:"blocks"`
	// PredictedNs is the cost model's makespan estimate for this
	// configuration; MeasuredNs what the winning simulator probe measured.
	// Their gap is the model error the remark trail records for training.
	PredictedNs int64 `json:"predicted_ns"`
	MeasuredNs  int64 `json:"measured_ns"`
	// Probes counts the simulator runs the search spent (0 = exact model
	// hit). Source says where the winning configuration came from: "model"
	// (learned predictor) or "search" (cost-ranked probing).
	Probes int    `json:"probes"`
	Source string `json:"source"`
}

// Gap returns predicted/measured − 1, the signed relative model error
// (0 when either side is unknown).
func (d TuneDecision) Gap() float64 {
	if d.MeasuredNs <= 0 || d.PredictedNs <= 0 {
		return 0
	}
	return float64(d.PredictedNs)/float64(d.MeasuredNs) - 1
}

// Remark renders the decision as the structured remark the tune pipeline
// stage emits.
func (d TuneDecision) Remark() Remark {
	spec := d.Spec
	if spec == "" {
		spec = "(none)"
	}
	return Remark{
		Pass:    "tune",
		Op:      "select",
		Verdict: VerdictApplied,
		Reason: fmt.Sprintf("selected pipeline %s with %d blocks (%d probes via %s; predicted %v, measured %v)",
			spec, d.Blocks, d.Probes, d.Source,
			engine.Duration(d.PredictedNs), engine.Duration(d.MeasuredNs)),
		Args: map[string]any{
			"spec":         d.Spec,
			"blocks":       d.Blocks,
			"predicted_ns": d.PredictedNs,
			"measured_ns":  d.MeasuredNs,
			"probes":       d.Probes,
			"source":       d.Source,
		},
	}
}

// tunePass is the tune pipeline stage: a file-scoped pass that transforms
// nothing and instead records the tuner's configuration decision —
// predicted vs measured cost included — in the remark trail, so a tuned
// compilation explains itself the same way every other pass decision does.
type tunePass struct {
	d *TuneDecision
}

func (tunePass) Name() string { return "tune" }

// ApplyFile emits the decision remark (filePass seam: runs once per file,
// not per loop).
func (p tunePass) ApplyFile(ctx *Context) (Remarks, error) {
	if p.d == nil {
		return Remarks{{
			Pass:    "tune",
			Op:      "select",
			Verdict: VerdictSkippedIllegal,
			Reason:  "no tuning decision available (pipeline requested the tune stage without running the tuner)",
		}}, nil
	}
	return Remarks{p.d.Remark()}, nil
}

// Applies and Apply satisfy the Pass interface; the manager dispatches
// file-scoped passes through ApplyFile and never calls them.
func (tunePass) Applies(*Context, *minic.ForStmt) (bool, string) {
	return false, "tune is file-scoped"
}

func (p tunePass) Apply(*Context, *minic.ForStmt) (Remarks, error) {
	return nil, fmt.Errorf("pass: tune is file-scoped; Apply must not be called")
}
