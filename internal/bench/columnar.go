package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/sim/machine"
	"comp/internal/transform"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// The columnar report is the batch tier's perf artifact: scalar-VM vs
// columnar-VM wall-clock per program, over every MiniC workload plus a
// set of synthetic element-wise kernels (including an AoS/SoA pair, the
// SoA side derived by actually running transform.AoSToSoA). The geomean
// is taken over the vectorizable rows — programs that lowered at least
// one loop to a fused vector op; everything else executes identical
// scalar bytecode in both modes and is reported ratio-only as context.
// The measured geomean also feeds machine.CalibrateVectorEff, closing
// the loop between the simulator's SIMD factor and host-measured ratios.

// ColumnarRow is one program's line.
type ColumnarRow struct {
	Name string `json:"name"`
	// Note marks programs the engines cannot run ("n/a shared-memory").
	Note string `json:"note,omitempty"`
	// VecLoops counts the fused vector ops the compiler emitted; 0 means
	// the program is scalar-only and both modes run the same bytecode.
	VecLoops int `json:"vec_loops"`
	// Synthetic marks the element-wise kernel rows (vs real workloads).
	Synthetic bool `json:"synthetic,omitempty"`
	// Stale marks a committed row whose vec_loops was corrected by hand
	// after its timings were taken: the regression guard skips its ratio
	// until the file is regenerated. The generator never sets it.
	Stale bool `json:"stale,omitempty"`
	// Best-of-N wall-clock of one full run per mode.
	VMNs       int64 `json:"vm_ns,omitempty"`
	ColumnarNs int64 `json:"columnar_ns,omitempty"`
	// Speedup is VMNs/ColumnarNs (>1 means the batch tier is faster).
	Speedup float64 `json:"speedup,omitempty"`
}

// ColumnarReport aggregates the rows plus the derived calibration.
type ColumnarReport struct {
	Iters int           `json:"iters"`
	Rows  []ColumnarRow `json:"programs"`
	// GeomeanSpeedup is the geometric-mean vm/columnar ratio over the
	// vectorizable rows (VecLoops > 0), synthetic kernels included.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
	// WorkloadGeomean restricts the geomean to the vectorizable *workload*
	// rows. Synthetic microkernels spend nearly all their time inside the
	// batch loop, so their ratio also counts the interpreter dispatch they
	// shed — an overestimate of pure SIMD gain. Real workloads mix scalar
	// and vector phases the way the paper's benchmarks do, which is the
	// regime Config.VectorEff models; the calibration uses this number.
	WorkloadGeomean float64 `json:"workload_geomean"`
	// Calibration derived from the measured workload geomean on the host
	// model: VectorEff = geomean / VectorLanes, clamped to (0,1].
	HostLanes int     `json:"host_lanes"`
	VectorEff float64 `json:"vector_eff"`
}

// columnarKernels are the synthetic element-wise programs. Each wraps its
// vector loops in a scalar repeat loop (which itself stays scalar — loop
// bodies containing loops never qualify) so the batched work dominates
// the measurement without inflating memory.
var columnarKernels = []struct {
	name string
	src  string
}{
	{"saxpy", elementwise(`z[i] = 2.5 * x[i] + y[i];`)},
	{"triad-chain", elementwise(`z[i] = x[i] + s * y[i]; y[i] = z[i] * 0.5 + x[i];`)},
	{"poly", elementwise(`float t = x[i] * 0.001; z[i] = ((1.25 * t + 0.5) * t + 2.0) * t + 1.0;`)},
	{"clamp-select", elementwise(`z[i] = fmax(fmin(x[i], 100.0), -100.0) * ((y[i] > 16000.0) ? 0.5 : 1.0);`)},
	{"int-arith", `
int ia[32768]; int ib[32768];
int main(void) {
    int it; int i;
    for (i = 0; i < 32768; i++) { ia[i] = i; ib[i] = i * 7; }
    for (it = 0; it < 8; it++) {
        for (i = 0; i < 32768; i++) { ia[i] = (ib[i] * 3 + ia[i]) % 1021; }
    }
    printf("%d\n", ia[1000]);
    return 0;
}`},
	{"nbody-aos", nbodyAoS},
}

// elementwise builds a standard harness around one vector-loop body.
func elementwise(body string) string {
	return `
float x[32768]; float y[32768]; float z[32768];
float s;
int main(void) {
    int it; int i;
    s = 1.5;
    for (i = 0; i < 32768; i++) { x[i] = i * 0.25; y[i] = 32768 - i; z[i] = 0.0; }
    for (it = 0; it < 8; it++) {
        for (i = 0; i < 32768; i++) { ` + body + ` }
    }
    printf("%g %g\n", z[100], z[32700]);
    return 0;
}`
}

// nbodyAoS reads three interleaved struct fields per element — the layout
// the columnar qualifier rejects (member access is irregular), so it runs
// scalar in both modes. Its SoA counterpart, produced by the real §IV
// pass, lowers to fused vector ops; the pair is the host-measured version
// of the paper's AoS-vs-SoA argument.
const nbodyAoS = `
struct body {
    float px;
    float py;
    float m;
};
struct body bodies[16384];
float ke[16384];
int main(void) {
    int it; int i;
    for (i = 0; i < 16384; i++) {
        bodies[i].px = i * 0.5;
        bodies[i].py = 2.0 - i * 0.25;
        bodies[i].m = 1.0 + i % 9;
    }
    for (it = 0; it < 16; it++) {
        #pragma offload target(mic:0) in(bodies : length(16384)) out(ke : length(16384))
        #pragma omp parallel for
        for (i = 0; i < 16384; i++) {
            ke[i] = 0.5 * bodies[i].m * (bodies[i].px * bodies[i].px + bodies[i].py * bodies[i].py);
        }
    }
    printf("%g\n", ke[12345]);
    return 0;
}`

// soaVariant runs transform.AoSToSoA over every offload loop in src and
// returns the printed result, or an error if the pass does not fire.
func soaVariant(src string) (string, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return "", err
	}
	applied := 0
	for _, loop := range transform.FindOffloadLoops(f) {
		n, err := transform.AoSToSoA(f, loop)
		if err != nil {
			return "", err
		}
		applied += n
	}
	if applied == 0 {
		return "", fmt.Errorf("AoSToSoA did not fire")
	}
	return minic.Print(f), nil
}

// columnarSource measures one source under the scalar-only VM and the VM
// with its columnar tier, recording how many loops lowered to vector ops.
func columnarSource(name, src string, setup func(*interp.Program) error, iters int) (ColumnarRow, error) {
	row := ColumnarRow{Name: name}
	var ns [2]int64
	for i, mk := range []func(*interp.Program) (*vm.Engine, error){vm.NewScalarEngine, vm.NewEngine} {
		p, err := interp.Compile(src)
		if err != nil {
			return row, fmt.Errorf("compile: %w", err)
		}
		e, err := mk(p)
		if err != nil {
			return row, fmt.Errorf("vm compile: %w", err)
		}
		row.VecLoops = e.Module().VecLoopCount()
		p.SetEngine(e)
		if ns[i], err = timeRun(p, setup, iters); err != nil {
			return row, fmt.Errorf("run: %w", err)
		}
	}
	row.VMNs, row.ColumnarNs = ns[0], ns[1]
	row.Speedup = float64(row.VMNs) / float64(row.ColumnarNs)
	return row, nil
}

// ColumnarBench measures every workload and synthetic kernel. iters <= 0
// defaults to 3.
func (r *Runner) ColumnarBench(iters int) (*ColumnarReport, error) {
	if iters <= 0 {
		iters = 3
	}
	rep := &ColumnarReport{Iters: iters}
	add := func(row ColumnarRow, err error) error {
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
		return nil
	}
	for _, b := range workloads.All() {
		if b.SharedMem {
			rep.Rows = append(rep.Rows, ColumnarRow{Name: b.Name, Note: "n/a shared-memory"})
			continue
		}
		if err := add(columnarSource(b.Name, b.Source, b.Setup, iters)); err != nil {
			return nil, fmt.Errorf("columnar %s: %w", b.Name, err)
		}
	}
	kernel := func(name, src string) error {
		row, err := columnarSource(name, src, nil, iters)
		row.Synthetic = true
		return add(row, err)
	}
	for _, k := range columnarKernels {
		if err := kernel(k.name, k.src); err != nil {
			return nil, fmt.Errorf("columnar %s: %w", k.name, err)
		}
	}
	soa, err := soaVariant(nbodyAoS)
	if err != nil {
		return nil, fmt.Errorf("columnar nbody-soa: %w", err)
	}
	if err := kernel("nbody-soa", soa); err != nil {
		return nil, fmt.Errorf("columnar nbody-soa: %w", err)
	}

	logSum, n := 0.0, 0
	wlSum, wn := 0.0, 0
	for _, row := range rep.Rows {
		if row.Note != "" || row.VecLoops == 0 {
			continue
		}
		logSum += math.Log(row.Speedup)
		n++
		if !row.Synthetic {
			wlSum += math.Log(row.Speedup)
			wn++
		}
	}
	if n > 0 {
		rep.GeomeanSpeedup = math.Exp(logSum / float64(n))
	}
	if wn > 0 {
		rep.WorkloadGeomean = math.Exp(wlSum / float64(wn))
	}
	host := machine.XeonE5()
	rep.HostLanes = host.VectorLanes
	rep.VectorEff = machine.CalibrateVectorEff(rep.WorkloadGeomean, host.VectorLanes)
	return rep, nil
}

// WriteJSON emits the report as indented JSON (BENCH_columnar.json).
func (rep *ColumnarReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Format renders the report as an aligned text table.
func (rep *ColumnarReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "columnar VM vs scalar VM — best of %d full runs each\n", rep.Iters)
	fmt.Fprintf(&sb, "%-14s %8s %12s %12s %8s\n", "program", "vecloops", "vm(ns)", "columnar(ns)", "speedup")
	for _, row := range rep.Rows {
		if row.Note != "" {
			fmt.Fprintf(&sb, "%-14s %8s\n", row.Name, row.Note)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %8d %12d %12d %7.2fx\n", row.Name, row.VecLoops, row.VMNs, row.ColumnarNs, row.Speedup)
	}
	fmt.Fprintf(&sb, "  geomean speedup (vectorizable rows) %.2fx\n", rep.GeomeanSpeedup)
	fmt.Fprintf(&sb, "  geomean speedup (vectorizable workloads) %.2fx\n", rep.WorkloadGeomean)
	fmt.Fprintf(&sb, "  calibrated VectorEff %.3f (%d host lanes)\n", rep.VectorEff, rep.HostLanes)
	return sb.String()
}
