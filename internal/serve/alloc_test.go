package serve

import (
	goruntime "runtime"
	"testing"
)

// TestWarmRequestAllocationBounds bounds the bytes a warm request
// allocates on a stepped server set up like BenchmarkServeWarmRequest
// (tuned plans, 4 streams, the VM), as the runtime.MemStats.TotalAlloc
// delta over several requests after a first one that builds the plan.
// bfs reuses its five device buffers across its 10 levels instead of
// allocating them per offload (15.1 MB per request before); the other
// bounds are the figures measured before that change plus 5%.
func TestWarmRequestAllocationBounds(t *testing.T) {
	const requests = 5
	pl := NewPlanner()
	for _, tc := range []struct {
		workload string
		maxBytes float64
	}{
		{"bfs", 4 << 20},
		{"nn", 3.58e6 * 1.05},
		{"dedup", 1.80e6 * 1.05},
		{"srad", 6.16e6 * 1.05},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			s, do := warmServer(t, pl)
			defer s.Close()
			job := Job{Workload: tc.workload}
			do(job) // build the plan
			var before, after goruntime.MemStats
			goruntime.GC()
			goruntime.ReadMemStats(&before)
			for i := 0; i < requests; i++ {
				do(job)
			}
			goruntime.ReadMemStats(&after)
			perReq := float64(after.TotalAlloc-before.TotalAlloc) / requests
			t.Logf("%s: %.0f bytes per warm request", tc.workload, perReq)
			if perReq > tc.maxBytes {
				t.Fatalf("%s allocates %.0f bytes per warm request, bound %.0f", tc.workload, perReq, tc.maxBytes)
			}
		})
	}
}
