package serve

import (
	"testing"

	"comp/internal/vm"
)

// tinySource is a small inline offload program: a few kernels over 64
// elements, so a request's cost is the serving path, not execution.
const tinySource = `
float a[64];
float b[64];
float s;
int main(void) {
    int i;
    for (i = 0; i < 64; i++) {
        a[i] = i * 0.25 + 1.0;
    }
    #pragma offload target(mic:0) in(a : length(64)) out(b : length(64))
    #pragma omp parallel for
    for (i = 0; i < 64; i++) {
        b[i] = sqrt(a[i]) * 2.0 + a[i];
    }
    s = 0.0;
    for (i = 0; i < 64; i++) {
        s = s + b[i];
    }
    return 0;
}
`

// BenchmarkServeWarmRequest measures one request on a warm plan — the
// plan-cache hit path: a program for the request, one scheduler run, and
// the outputs copied into the response — for the four workloads of
// compperf's serve-hot mix and a tiny inline program. Like serve-hot, the
// server tunes its plans and schedules over 4 streams; it is stepped, so
// the figure holds no dispatcher hand-off, and pins the VM. One Planner
// serves every run, so each plan is tuned once per process.
func BenchmarkServeWarmRequest(b *testing.B) {
	pl := NewPlanner()
	for _, bc := range []struct {
		name string
		job  Job
	}{
		{"nn", Job{Workload: "nn"}},
		{"dedup", Job{Workload: "dedup"}},
		{"srad", Job{Workload: "srad"}},
		{"bfs", Job{Workload: "bfs"}},
		{"tiny", Job{Key: "tiny", Source: tinySource, Outputs: []string{"b"}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, do := warmServer(b, pl)
			defer s.Close()
			do(bc.job) // build the plan
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do(bc.job)
			}
		})
	}
}

// warmServer starts a stepped server set up like serve-hot — tuned plans
// over 4 streams on the VM — that shares pl's plans, and returns it with a
// function that runs one request to completion.
func warmServer(tb testing.TB, pl *Planner) (*Server, func(Job)) {
	tb.Helper()
	s, err := New(Config{Streams: 4, Stepped: true, Exec: vm.ExecVM, Tune: true, Planner: pl})
	if err != nil {
		tb.Fatal(err)
	}
	return s, func(job Job) {
		t, err := s.Enqueue(job)
		if err != nil {
			tb.Fatal(err)
		}
		s.StepBatch()
		if _, err := t.Wait(); err != nil {
			tb.Fatal(err)
		}
	}
}
