package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"comp/internal/runtime"
	"comp/internal/workloads"
)

// The streams report is the repo's perf-trajectory artifact: for every
// workload it measures (a) how much the device-sharing scheduler gains over
// serialized single-stream execution of the same concurrent request batch,
// and (b) how close the block-count climb (tune.ClimbBlocks) lands to the
// exhaustive-sweep oracle and how many probe runs it spent. compbench
// -streams writes it as BENCH_streams.json.

// StreamsRow is one workload's line.
type StreamsRow struct {
	Name string `json:"name"`
	// Note marks workloads the scheduler cannot run ("n/a shared-memory").
	Note string `json:"note,omitempty"`

	// SerializedNs is the makespan of the request batch on one stream;
	// ConcurrentNs on the configured stream count. Speedup is their ratio.
	SerializedNs int64   `json:"serialized_ns,omitempty"`
	ConcurrentNs int64   `json:"concurrent_ns,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	// CrossStreamOverlapNs is time ≥2 streams computed simultaneously in
	// the concurrent run.
	CrossStreamOverlapNs int64 `json:"cross_stream_overlap_ns,omitempty"`

	// Block climb vs exhaustive sweep on the streaming block count.
	TunedBlocks  int   `json:"tuned_blocks,omitempty"`
	TunedNs      int64 `json:"tuned_ns,omitempty"`
	TunerProbes  int   `json:"tuner_probes,omitempty"`
	OracleBlocks int   `json:"oracle_blocks,omitempty"`
	OracleNs     int64 `json:"oracle_ns,omitempty"`
	// TunerGap is TunedNs/OracleNs − 1 (0 = tuner matched the oracle).
	TunerGap float64 `json:"tuner_gap"`
}

// StreamsReport aggregates the per-workload rows.
type StreamsReport struct {
	Streams  int          `json:"streams"`
	Requests int          `json:"requests"`
	Rows     []StreamsRow `json:"workloads"`
	// SpeedupWins counts workloads whose scheduler speedup is ≥ 1.3.
	SpeedupWins int `json:"speedup_wins_1_3x"`
	// MaxTunerGap is the worst TunerGap across measured workloads.
	MaxTunerGap float64 `json:"max_tuner_gap"`
	// MaxTunerProbes is the largest probe count any workload spent.
	MaxTunerProbes int `json:"max_tuner_probes"`
}

// StreamsBenchmark measures one workload: the scheduler speedup of
// `requests` concurrent requests on `streams` streams over the same batch
// serialized on one stream, plus the climb-vs-sweep comparison. The
// per-request program is the workload's tuned streaming variant.
func (r *Runner) StreamsBenchmark(b *workloads.Benchmark, streams, requests int) (StreamsRow, error) {
	row := StreamsRow{Name: b.Name}
	if b.SharedMem {
		row.Note = "n/a shared-memory"
		return row, nil
	}
	tuned, err := r.TuneStreaming(b)
	if err != nil {
		return row, err
	}
	oracle, oracleN, err := r.SweepStreaming(b)
	if err != nil {
		return row, err
	}
	row.TunedBlocks = tuned.Blocks
	row.TunedNs = int64(tuned.Time)
	row.TunerProbes = tuned.Probes
	row.OracleBlocks = oracleN
	row.OracleNs = int64(oracle.Stats.Time)
	if oracle.Stats.Time > 0 {
		row.TunerGap = float64(tuned.Time)/float64(oracle.Stats.Time) - 1
	}

	opt := streamingOptions(b, tuned.Blocks)
	ro := workloads.RunOptions{Variant: workloads.MICOptimized, Opt: opt}
	for _, nStreams := range []int{1, streams} {
		sched, err := runtime.NewScheduler(runtime.DefaultConfig(), nStreams)
		if err != nil {
			return row, err
		}
		for i := 0; i < requests; i++ {
			p, _, err := b.Prepare(ro)
			if err != nil {
				return row, err
			}
			sched.Submit(runtime.Request{
				Label:   fmt.Sprintf("%s-%02d", b.Name, i),
				Program: p,
				Setup:   b.Setup,
			})
		}
		res, err := sched.Run()
		if err != nil {
			return row, err
		}
		if nStreams == 1 {
			row.SerializedNs = int64(res.Stats.Time)
		} else {
			row.ConcurrentNs = int64(res.Stats.Time)
			row.CrossStreamOverlapNs = int64(res.Stats.CrossStreamOverlap)
		}
	}
	if row.ConcurrentNs > 0 {
		row.Speedup = float64(row.SerializedNs) / float64(row.ConcurrentNs)
	}
	return row, nil
}

// Streams measures every workload and assembles the report.
func (r *Runner) Streams(streams, requests int) (*StreamsReport, error) {
	rep := &StreamsReport{Streams: streams, Requests: requests}
	for _, b := range workloads.All() {
		row, err := r.StreamsBenchmark(b, streams, requests)
		if err != nil {
			return nil, fmt.Errorf("streams %s: %w", b.Name, err)
		}
		rep.Rows = append(rep.Rows, row)
		if row.Note != "" {
			continue
		}
		if row.Speedup >= 1.3 {
			rep.SpeedupWins++
		}
		if row.TunerGap > rep.MaxTunerGap {
			rep.MaxTunerGap = row.TunerGap
		}
		if row.TunerProbes > rep.MaxTunerProbes {
			rep.MaxTunerProbes = row.TunerProbes
		}
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON (BENCH_streams.json).
func (rep *StreamsReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Format renders the report as an aligned text table.
func (rep *StreamsReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stream scheduler — %d requests, %d streams vs serialized\n", rep.Requests, rep.Streams)
	fmt.Fprintf(&sb, "%-14s %12s %12s %8s %8s %8s %8s %7s\n",
		"benchmark", "serial(ns)", "concur(ns)", "speedup", "tunedN", "oracleN", "gap%", "probes")
	for _, row := range rep.Rows {
		if row.Note != "" {
			fmt.Fprintf(&sb, "%-14s %12s\n", row.Name, row.Note)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %12d %12d %8.2f %8d %8d %8.1f %7d\n",
			row.Name, row.SerializedNs, row.ConcurrentNs, row.Speedup,
			row.TunedBlocks, row.OracleBlocks, row.TunerGap*100, row.TunerProbes)
	}
	fmt.Fprintf(&sb, "  note: %d/%d workloads at ≥1.3x; worst tuner gap %.1f%%; max probes %d\n",
		rep.SpeedupWins, len(rep.Rows), rep.MaxTunerGap*100, rep.MaxTunerProbes)
	return sb.String()
}
