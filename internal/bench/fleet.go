package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"comp/internal/fleet"
)

// The fleet report measures the sharded serving layer the way the serve
// report measures one server, but deterministically: every scenario is a
// fixed trace replayed through fleet.Replay on a stepped fleet with a
// virtual clock, so the makespans are simulated time and bit-stable across
// runs — which is what lets TestFleetRegressionGuard compare them against
// a committed BENCH_fleet.json with a hard tolerance. Three scenarios
// bracket the envelope: "steady" provisions every queue for the offered
// load, "overload" undersizes the queues so the router must steal and the
// devices must shed, and "device-loss" fails a device mid-trace under a
// fault storm and restores it, forcing a drain and rebalance.

// FleetRow is one scenario's line.
type FleetRow struct {
	Scenario   string `json:"scenario"`
	Requests   int    `json:"requests"`
	QueueDepth int    `json:"queue_depth"`

	Completed int64 `json:"completed"`
	Shed      int64 `json:"shed"`
	Expired   int64 `json:"expired,omitempty"`
	NoDevice  int64 `json:"no_device,omitempty"`
	Stolen    int64 `json:"stolen,omitempty"`
	Rerouted  int64 `json:"rerouted,omitempty"`

	PlanHitRatio float64 `json:"plan_hit_ratio"`

	// MakespanNs is the fleet makespan (max per-device simulated busy time);
	// TotalSimNs the fleet-wide sum. Both are deterministic.
	MakespanNs int64 `json:"makespan_ns"`
	TotalSimNs int64 `json:"total_sim_ns"`
}

// FleetBenchReport aggregates the scenario rows.
type FleetBenchReport struct {
	Hosts     int        `json:"hosts"`
	PerHost   int        `json:"per_host"`
	Requests  int        `json:"requests"`
	Workloads []string   `json:"workloads"`
	Rows      []FleetRow `json:"scenarios"`
}

// FleetLoad replays the three bracket scenarios against a hosts × perHost
// heterogeneous fleet and returns the report. Every figure is exact and
// deterministic: a changed number always means a changed schedule or
// placement, never noise.
func (r *Runner) FleetLoad(hosts, perHost, requests int) (*FleetBenchReport, error) {
	if hosts < 1 || perHost < 1 || requests < 1 {
		return nil, fmt.Errorf("bench: fleet shape %dx%d with %d requests is not positive", hosts, perHost, requests)
	}
	if hosts*perHost < 2 {
		return nil, fmt.Errorf("bench: the device-loss scenario needs at least 2 devices, got %d", hosts*perHost)
	}
	rep := &FleetBenchReport{Hosts: hosts, PerHost: perHost, Requests: requests, Workloads: ServeWorkloads}
	scenarios := []struct {
		name  string
		queue int
		steps bool
		loss  bool
	}{
		// Steady: every queue holds the full offered load; nothing sheds.
		{"steady", requests, true, false},
		// Overload: tiny queues, no intermediate steps — the owners fill,
		// the router steals to same-signature peers, then the fleet sheds.
		{"overload", 2, false, false},
		// Device-loss: steady shape plus a mid-trace storm, loss, and
		// restore of one device.
		{"device-loss", requests, true, true},
	}
	for _, sc := range scenarios {
		cfg := fleet.Config{Devices: fleet.DefaultDevices(hosts, perHost, sc.queue)}
		res, err := fleet.Replay(cfg, fleet.LossTrace(ServeWorkloads, requests, 0, sc.steps, sc.loss))
		if err != nil {
			return nil, fmt.Errorf("fleet %s: %w", sc.name, err)
		}
		m := res.Report
		row := FleetRow{
			Scenario:     sc.name,
			Requests:     requests,
			QueueDepth:   sc.queue,
			Completed:    m.Aggregate.Completed,
			Shed:         m.Aggregate.Shed,
			Expired:      m.Aggregate.Expired,
			NoDevice:     m.NoDevice,
			Stolen:       m.Stolen,
			Rerouted:     m.Rerouted,
			PlanHitRatio: m.Aggregate.PlanHitRatio,
			MakespanNs:   m.MakespanNs,
			TotalSimNs:   m.TotalSimNs,
		}
		answered := row.Completed + row.Shed + row.Expired + m.Aggregate.Failed + row.NoDevice
		if answered != int64(requests) {
			return nil, fmt.Errorf("fleet %s: accounting: %d answered of %d offered", sc.name, answered, requests)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON.
func (rep *FleetBenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Format renders the report as an aligned text table.
func (rep *FleetBenchReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet serving — %d×%d devices, workloads %s, deterministic replay\n",
		rep.Hosts, rep.PerHost, strings.Join(rep.Workloads, "+"))
	fmt.Fprintf(&sb, "%-12s %8s %6s %10s %6s %7s %7s %9s %7s %12s\n",
		"scenario", "offered", "queue", "completed", "shed", "expired", "stolen", "rerouted", "hit%", "makespan(ms)")
	for _, row := range rep.Rows {
		fmt.Fprintf(&sb, "%-12s %8d %6d %10d %6d %7d %7d %9d %6.1f%% %12.2f\n",
			row.Scenario, row.Requests, row.QueueDepth, row.Completed, row.Shed+row.NoDevice,
			row.Expired, row.Stolen, row.Rerouted, 100*row.PlanHitRatio,
			float64(row.MakespanNs)/float64(time.Millisecond))
	}
	sb.WriteString("  note: makespans are simulated time from a stepped replay — rerun-stable to the nanosecond\n")
	return sb.String()
}
