package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"comp/internal/core"
	"comp/internal/runtime"
	"comp/internal/sim/machine"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// The tune report validates the unified cost-model tuner (internal/tune)
// against an exhaustive oracle on every workload, on two machines:
//
//   - cold: an empty model tunes on the default platform; the chosen
//     configuration must match or beat the oracle sweep's best makespan
//     within the probe budget.
//   - warm: a fresh tuner sharing the now-trained model repeats the same
//     workload on the same platform; it must converge in 0 probes.
//   - held-out: the same model tunes the workload on a machine it has
//     never measured (the smaller xeon-phi-3120 card); it must converge
//     in ≤2 probes and still match the oracle sweep run on that machine.
//
// compbench -tune writes it as BENCH_tune.json and the trained model as
// TUNE_model.json; both are regression-guarded goldens.

// TuneRow is one workload's line.
type TuneRow struct {
	Name string `json:"name"`
	// Note marks workloads the MiniC pipeline cannot tune ("n/a shared-memory").
	Note string `json:"note,omitempty"`

	// Cold search on the default platform vs the exhaustive oracle.
	Spec         string `json:"spec"`
	Blocks       int    `json:"blocks,omitempty"`
	Probes       int    `json:"probes,omitempty"`
	PredictedNs  int64  `json:"predicted_ns,omitempty"`
	TunedNs      int64  `json:"tuned_ns,omitempty"`
	OracleSpec   string `json:"oracle_spec"`
	OracleBlocks int    `json:"oracle_blocks,omitempty"`
	OracleNs     int64  `json:"oracle_ns,omitempty"`
	// Gap is TunedNs/OracleNs − 1 (0 = tuner matched the oracle).
	Gap float64 `json:"gap"`

	// Warm repeat on the same platform with the trained model.
	WarmProbes int    `json:"warm_probes"`
	WarmSource string `json:"warm_source"`

	// Held-out machine (xeon-phi-3120) with the trained model.
	HeldOutProbes   int     `json:"held_out_probes"`
	HeldOutNs       int64   `json:"held_out_ns,omitempty"`
	HeldOutOracleNs int64   `json:"held_out_oracle_ns,omitempty"`
	HeldOutGap      float64 `json:"held_out_gap"`
}

// TuneReport aggregates the per-workload rows.
type TuneReport struct {
	MaxProbes int       `json:"max_probes"`
	HeldOut   string    `json:"held_out_machine"`
	Rows      []TuneRow `json:"workloads"`
	// MaxGap / MaxHeldOutGap are the worst tuned-vs-oracle gaps observed.
	MaxGap        float64 `json:"max_gap"`
	MaxHeldOutGap float64 `json:"max_held_out_gap"`
	// MaxColdProbes / MaxWarmProbes / MaxHeldOutProbes are the largest
	// probe counts any workload spent in each phase.
	MaxColdProbes    int `json:"max_cold_probes"`
	MaxWarmProbes    int `json:"max_warm_probes"`
	MaxHeldOutProbes int `json:"max_held_out_probes"`
}

// tunePlatform is the measurement configuration for one workload.
func tunePlatform(b *workloads.Benchmark, mic machine.Config) runtime.Config {
	cfg := runtime.DefaultConfig()
	cfg.MIC = mic
	cfg.DisableTrace = true
	if b.CPUThreads > 0 {
		cfg.CPUThreads = b.CPUThreads
	}
	return cfg
}

// sweepOracle measures every candidate configuration exhaustively — each
// spec the tuner would consider, and for streaming specs every block count
// on the ladder — and returns the fastest. This is the ground truth the
// tuner's bounded search is scored against. It measures through the same
// core.Measurer as the search, so each distinct program runs once.
func sweepOracle(b *workloads.Benchmark, cfg runtime.Config) (tune.Config, int64, error) {
	m, err := core.NewMeasurer(b.Source, cfg, b.Setup)
	if err != nil {
		return tune.Config{}, 0, err
	}
	feats, err := tune.Extract(m.File())
	if err != nil {
		return tune.Config{}, 0, err
	}
	var best tune.Config
	var bestNs int64
	for _, spec := range tune.DefaultSpecs(feats) {
		ladder := []int{0}
		if strings.Contains(spec, "streaming") {
			ladder = tune.Ladder()
		}
		for _, n := range ladder {
			c := tune.Config{Spec: spec, Blocks: n}
			d, err := m.Measure(c)
			if err != nil {
				return tune.Config{}, 0, err
			}
			if ns := int64(d); bestNs == 0 || ns < bestNs {
				best, bestNs = c, ns
			}
		}
	}
	return best, bestNs, nil
}

// TuneBenchmark runs the three tuning phases for one workload against a
// shared model: cold on the default platform, warm repeat, and the
// held-out machine. The model accumulates the cold decision (that is the
// training step the warm phases exploit).
func TuneBenchmark(b *workloads.Benchmark, model *tune.Model) (TuneRow, error) {
	row := TuneRow{Name: b.Name}
	if b.SharedMem {
		row.Note = "n/a shared-memory"
		return row, nil
	}
	cfg := tunePlatform(b, machine.XeonPhi())
	heldCfg := tunePlatform(b, machine.XeonPhi3120())

	cold, err := core.TuneSource(&tune.Tuner{Model: model}, b.Name, b.Source, cfg, b.Setup)
	if err != nil {
		return row, err
	}
	row.Spec = cold.Spec
	row.Blocks = cold.Blocks
	row.Probes = cold.Probes
	row.PredictedNs = cold.PredictedNs
	row.TunedNs = cold.MeasuredNs

	oracle, oracleNs, err := sweepOracle(b, cfg)
	if err != nil {
		return row, err
	}
	row.OracleSpec = oracle.Spec
	row.OracleBlocks = oracle.Blocks
	row.OracleNs = oracleNs
	if oracleNs > 0 {
		row.Gap = float64(row.TunedNs)/float64(oracleNs) - 1
	}

	// Warm repeat: a fresh tuner (no decision cache) sharing the model.
	warm, err := core.TuneSource(&tune.Tuner{Model: model}, b.Name, b.Source, cfg, b.Setup)
	if err != nil {
		return row, err
	}
	row.WarmProbes = warm.Probes
	row.WarmSource = warm.Source

	// Held-out machine: the model has never seen a xeon-phi-3120 sample
	// for this workload, so the decision must transfer.
	held, err := core.TuneSource(&tune.Tuner{Model: model}, b.Name, b.Source, heldCfg, b.Setup)
	if err != nil {
		return row, err
	}
	row.HeldOutProbes = held.Probes
	row.HeldOutNs = held.MeasuredNs
	if row.HeldOutNs == 0 {
		// A pure model hit reports the sample's measured time from the
		// training machine; re-measure the chosen config on the held-out
		// machine so the oracle comparison stays apples-to-apples.
		res, err := core.TunedRun(b.Source, held.Config, heldCfg, b.Setup)
		if err != nil {
			return row, err
		}
		row.HeldOutNs = int64(res.Stats.Time)
	}
	heldOracleNs := int64(0)
	if _, heldOracleNs, err = sweepOracle(b, heldCfg); err != nil {
		return row, err
	}
	row.HeldOutOracleNs = heldOracleNs
	if heldOracleNs > 0 {
		row.HeldOutGap = float64(row.HeldOutNs)/float64(heldOracleNs) - 1
	}
	return row, nil
}

// TuneBench runs the tuner-vs-oracle comparison over the whole suite (or
// the named subset) and returns the report plus the trained model. One
// model is shared across all rows, in suite order, so the report also
// exercises cross-workload nearest-neighbour lookups.
func (r *Runner) TuneBench(only ...string) (*TuneReport, *tune.Model, error) {
	rep := &TuneReport{
		MaxProbes: tune.DefaultMaxProbes,
		HeldOut:   machine.XeonPhi3120().Name,
	}
	model := tune.NewModel()
	for _, b := range workloads.All() {
		if len(only) > 0 && !contains(only, b.Name) {
			continue
		}
		row, err := TuneBenchmark(b, model)
		if err != nil {
			return nil, nil, fmt.Errorf("tune %s: %w", b.Name, err)
		}
		rep.Rows = append(rep.Rows, row)
		if row.Note != "" {
			continue
		}
		if row.Gap > rep.MaxGap {
			rep.MaxGap = row.Gap
		}
		if row.HeldOutGap > rep.MaxHeldOutGap {
			rep.MaxHeldOutGap = row.HeldOutGap
		}
		if row.Probes > rep.MaxColdProbes {
			rep.MaxColdProbes = row.Probes
		}
		if row.WarmProbes > rep.MaxWarmProbes {
			rep.MaxWarmProbes = row.WarmProbes
		}
		if row.HeldOutProbes > rep.MaxHeldOutProbes {
			rep.MaxHeldOutProbes = row.HeldOutProbes
		}
	}
	return rep, model, nil
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// WriteJSON emits the report as indented JSON (BENCH_tune.json).
func (rep *TuneReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Format renders the report as an aligned text table.
func (rep *TuneReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cost-model tuner vs exhaustive oracle — budget %d probes, held-out %s\n",
		rep.MaxProbes, rep.HeldOut)
	fmt.Fprintf(&sb, "%-14s %-28s %7s %7s %6s %7s %5s %5s %8s\n",
		"benchmark", "spec", "blocks", "oracleN", "gap%", "probes", "warm", "held", "heldgap%")
	for _, row := range rep.Rows {
		if row.Note != "" {
			fmt.Fprintf(&sb, "%-14s %-28s\n", row.Name, row.Note)
			continue
		}
		spec := row.Spec
		if spec == "" {
			spec = "(none)"
		}
		fmt.Fprintf(&sb, "%-14s %-28s %7d %7d %6.1f %7d %5d %5d %8.1f\n",
			row.Name, spec, row.Blocks, row.OracleBlocks, row.Gap*100,
			row.Probes, row.WarmProbes, row.HeldOutProbes, row.HeldOutGap*100)
	}
	fmt.Fprintf(&sb, "  note: worst gap %.1f%% (held-out %.1f%%); probes cold≤%d warm≤%d held-out≤%d\n",
		rep.MaxGap*100, rep.MaxHeldOutGap*100,
		rep.MaxColdProbes, rep.MaxWarmProbes, rep.MaxHeldOutProbes)
	return sb.String()
}
