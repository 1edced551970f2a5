package runtime

import (
	"fmt"
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/sim/engine"
	"comp/internal/sim/pcie"
)

func mustRun(t *testing.T, src string, cfg Config) Result {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Run(p, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestHostOnlyProgram(t *testing.T) {
	res := mustRun(t, `
float a[1000];
int main(void) {
    int i;
    #pragma omp parallel for
    for (i = 0; i < 1000; i++) {
        a[i] = i * 2.0;
    }
    return 0;
}
`, DefaultConfig())
	if res.Stats.KernelLaunches != 0 || res.Stats.Transfers != 0 {
		t.Fatalf("host-only run touched the device: %+v", res.Stats)
	}
	if res.Stats.Time <= 0 {
		t.Fatal("host-only run took no time")
	}
	if res.Stats.HostBusy != res.Stats.Time {
		t.Fatalf("host busy %v != makespan %v for host-only run", res.Stats.HostBusy, res.Stats.Time)
	}
}

const simpleOffload = `
float a[65536];
float b[65536];
int n;
int main(void) {
    int i;
    n = 65536;
    for (i = 0; i < n; i++) {
        a[i] = i;
    }
    #pragma offload target(mic:0) in(a : length(n)) out(b : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        b[i] = sqrt(a[i]) * 2.0;
    }
    return 0;
}
`

func TestSimpleOffloadAccounting(t *testing.T) {
	res := mustRun(t, simpleOffload, DefaultConfig())
	st := res.Stats
	if st.KernelLaunches != 1 {
		t.Fatalf("launches = %d, want 1", st.KernelLaunches)
	}
	if st.BytesIn != 65536*4 {
		t.Fatalf("bytes in = %d, want %d", st.BytesIn, 65536*4)
	}
	if st.BytesOut != 65536*4 {
		t.Fatalf("bytes out = %d, want %d", st.BytesOut, 65536*4)
	}
	// Default lifetimes: both buffers resident simultaneously.
	if st.PeakDeviceBytes != 2*65536*4 {
		t.Fatalf("peak device bytes = %d, want %d", st.PeakDeviceBytes, 2*65536*4)
	}
	// Synchronous offload: no overlap between transfer and compute.
	if st.Overlap != 0 {
		t.Fatalf("overlap = %v, want 0 for synchronous offload", st.Overlap)
	}
	// Makespan covers host + transfer + kernel.
	min := st.DeviceBusy + st.TransferBusy
	if st.Time < min {
		t.Fatalf("makespan %v < device+transfer %v", st.Time, min)
	}
}

func TestOffloadOOM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MIC.MemBytes = 1 << 20 // 1 MiB device
	cfg.MIC.OSReservedBytes = 0
	p, err := interp.Compile(simpleOffload) // needs 512 KiB -- fits
	if err != nil {
		t.Fatal(err)
	}
	if res, errRun := Run(p, cfg); errRun != nil {
		t.Fatalf("512 KiB footprint should fit in 1 MiB: %v", errRun)
	} else if len(res.Stats.Fallbacks) != 0 {
		t.Fatalf("fitting run degraded: %v", res.Stats.Fallbacks)
	}

	// 256 KiB: the working set no longer fits. With recovery disabled the
	// run fails hard, exactly as the old runtime did.
	cfg.MIC.MemBytes = 1 << 18
	cfg.Recovery.Disabled = true
	p2, _ := interp.Compile(simpleOffload)
	_, err = Run(p2, cfg)
	if err == nil || !strings.Contains(err.Error(), "out of device memory") {
		t.Fatalf("err = %v, want device OOM", err)
	}

	// With recovery (the default) the runtime degrades to the synchronous
	// staging plan and the run completes with correct outputs.
	cfg.Recovery.Disabled = false
	p3, _ := interp.Compile(simpleOffload)
	res, err := Run(p3, cfg)
	if err != nil {
		t.Fatalf("recovery should survive OOM: %v", err)
	}
	if len(res.Stats.Fallbacks) == 0 {
		t.Fatal("OOM recovery recorded no Fallbacks entry")
	}
	if !strings.Contains(res.Stats.Fallbacks[0], "synchronous") {
		t.Fatalf("fallback does not name the sync rung: %q", res.Stats.Fallbacks[0])
	}
	b, err := res.Program.ArrayData("b")
	if err != nil {
		t.Fatal(err)
	}
	if b[9] != 6 { // sqrt(9) * 2
		t.Fatalf("degraded run corrupted outputs: b[9] = %v, want 6", b[9])
	}
}

// streamedSource builds a double-buffered streamed version of a simple
// kernel over nblocks blocks, the shape Figure 5(c) describes.
func streamedSource(n, nblocks int, persist bool) string {
	bs := n / nblocks
	persistClause := ""
	if persist {
		persistClause = " persist(1)"
	}
	return fmt.Sprintf(`
float a[%d];
float b[%d];
float *a1;
float *a2;
float *b1;
int sig0;
int sig1;
int main(void) {
    int n = %d;
    int bs = %d;
    int nblocks = %d;
    int i;
    int blk;
    for (i = 0; i < n; i++) {
        a[i] = i;
    }
    #pragma offload_transfer target(mic:0) nocopy(a1 : length(bs) alloc_if(1) free_if(0)) nocopy(a2 : length(bs) alloc_if(1) free_if(0)) nocopy(b1 : length(bs) alloc_if(1) free_if(0))
    #pragma offload_transfer target(mic:0) in(a[0 : bs] : into(a1) alloc_if(0) free_if(0)) signal(&sig0)
    for (blk = 0; blk < nblocks; blk++) {
        if (blk %% 2 == 0) {
            if (blk + 1 < nblocks) {
                #pragma offload_transfer target(mic:0) in(a[(blk + 1) * bs : bs] : into(a2) alloc_if(0) free_if(0)) signal(&sig1)
                sig1 = sig1;
            }
            #pragma offload target(mic:0) nocopy(a1 : length(bs) alloc_if(0) free_if(0)) out(b1[0 : bs] : into(b[blk * bs : bs]) alloc_if(0) free_if(0)) wait(&sig0)%s
            #pragma omp parallel for
            for (i = 0; i < bs; i++) {
                b1[i] = sqrt(a1[i]) * 2.0;
            }
        } else {
            if (blk + 1 < nblocks) {
                #pragma offload_transfer target(mic:0) in(a[(blk + 1) * bs : bs] : into(a1) alloc_if(0) free_if(0)) signal(&sig0)
                sig0 = sig0;
            }
            #pragma offload target(mic:0) nocopy(a2 : length(bs) alloc_if(0) free_if(0)) out(b1[0 : bs] : into(b[blk * bs : bs]) alloc_if(0) free_if(0)) wait(&sig1)%s
            #pragma omp parallel for
            for (i = 0; i < bs; i++) {
                b1[i] = sqrt(a2[i]) * 2.0;
            }
        }
    }
    return 0;
}
`, n, n, n, bs, nblocks, persistClause, persistClause)
}

// unstreamedSource is the equivalent single offload.
func unstreamedSource(n int) string {
	return fmt.Sprintf(`
float a[%d];
float b[%d];
int main(void) {
    int n = %d;
    int i;
    for (i = 0; i < n; i++) {
        a[i] = i;
    }
    #pragma offload target(mic:0) in(a : length(n)) out(b : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        b[i] = sqrt(a[i]) * 2.0;
    }
    return 0;
}
`, n, n, n)
}

func TestStreamingOverlapsAndWins(t *testing.T) {
	const n = 1 << 18
	cfg := DefaultConfig()

	base := mustRun(t, unstreamedSource(n), cfg)
	streamed := mustRun(t, streamedSource(n, 16, false), cfg)

	// Value equivalence.
	b1, err := base.Program.ArrayData("b")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := streamed.Program.ArrayData("b")
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("b[%d]: streamed %v != base %v", i, b2[i], b1[i])
		}
	}

	// Streaming must overlap transfer with compute.
	if streamed.Stats.Overlap <= 0 {
		t.Fatal("streamed run shows no transfer/compute overlap")
	}
	if base.Stats.Overlap != 0 {
		t.Fatalf("baseline overlap = %v, want 0", base.Stats.Overlap)
	}
	// Device memory shrinks: 3 block buffers vs 2 full arrays.
	if streamed.Stats.PeakDeviceBytes >= base.Stats.PeakDeviceBytes/4 {
		t.Fatalf("streamed peak %d not <= base peak %d / 4",
			streamed.Stats.PeakDeviceBytes, base.Stats.PeakDeviceBytes)
	}
	t.Logf("base %v streamed %v (launches %d vs %d)",
		base.Stats.Time, streamed.Stats.Time, base.Stats.KernelLaunches, streamed.Stats.KernelLaunches)
}

func TestPersistentKernelReducesLaunches(t *testing.T) {
	const n = 1 << 18
	cfg := DefaultConfig()
	relaunch := mustRun(t, streamedSource(n, 16, false), cfg)
	persist := mustRun(t, streamedSource(n, 16, true), cfg)
	if relaunch.Stats.KernelLaunches != 16 {
		t.Fatalf("relaunch launches = %d, want 16", relaunch.Stats.KernelLaunches)
	}
	// The two block pragmas (even/odd branches) each keep one persistent
	// kernel resident.
	if persist.Stats.KernelLaunches != 2 {
		t.Fatalf("persistent launches = %d, want 2", persist.Stats.KernelLaunches)
	}
	if persist.Stats.Time >= relaunch.Stats.Time {
		t.Fatalf("persistent kernel %v not faster than relaunching %v",
			persist.Stats.Time, relaunch.Stats.Time)
	}
}

func TestAsyncTransferOverlapsHostCompute(t *testing.T) {
	src := `
float a[262144];
float big[262144];
int tag;
int main(void) {
    int i;
    for (i = 0; i < 262144; i++) {
        a[i] = i;
    }
    #pragma offload_transfer target(mic:0) in(a : length(262144) free_if(0)) signal(&tag)
    // Host keeps computing while the DMA runs.
    #pragma omp parallel for
    for (i = 0; i < 262144; i++) {
        big[i] = sqrt(a[i]) + exp(a[i] / 262144.0);
    }
    #pragma offload_wait target(mic:0) wait(&tag)
    return 0;
}
`
	res := mustRun(t, src, DefaultConfig())
	st := res.Stats
	sum := st.HostBusy + st.TransferBusy
	if st.Time >= sum {
		t.Fatalf("makespan %v >= host+transfer %v: no async overlap", st.Time, sum)
	}
}

func TestOffloadWaitBlocksHost(t *testing.T) {
	// Without the wait, host finishes before the transfer drains; with it,
	// makespan includes the DMA.
	mk := func(withWait bool) Result {
		wait := ""
		if withWait {
			wait = "#pragma offload_wait target(mic:0) wait(&tag)"
		}
		return mustRun(t, fmt.Sprintf(`
float a[1048576];
int tag;
int main(void) {
    a[0] = 1.0;
    #pragma offload_transfer target(mic:0) in(a : length(1048576) free_if(0)) signal(&tag)
    %s
    return 0;
}
`, wait), DefaultConfig())
	}
	withWait := mk(true)
	tt := New(DefaultConfig()).bus.TransferTime(1048576 * 4)
	if withWait.Stats.Time < tt {
		t.Fatalf("waited makespan %v < transfer time %v", withWait.Stats.Time, tt)
	}
}

func TestRepeatedOffloadsPayLaunchEachTime(t *testing.T) {
	src := `
float a[1024];
int main(void) {
    int r;
    int i;
    for (r = 0; r < 10; r++) {
        #pragma offload target(mic:0) inout(a : length(1024))
        #pragma omp parallel for
        for (i = 0; i < 1024; i++) {
            a[i] = a[i] + 1.0;
        }
    }
    return 0;
}
`
	res := mustRun(t, src, DefaultConfig())
	if res.Stats.KernelLaunches != 10 {
		t.Fatalf("launches = %d, want 10", res.Stats.KernelLaunches)
	}
	// inout transfers both ways, 10 times, plus no leaks: peak is one array.
	if res.Stats.PeakDeviceBytes != 1024*4 {
		t.Fatalf("peak = %d, want %d", res.Stats.PeakDeviceBytes, 1024*4)
	}
	av, _ := res.Program.ArrayData("a")
	if av[7] != 10 {
		t.Fatalf("a[7] = %v, want 10", av[7])
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.CPUThreads = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero CPU threads passed validation")
	}
	bad2 := cfg
	bad2.MIC.ClockGHz = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("invalid MIC config passed validation")
	}
	bad3 := cfg
	bad3.PCIe = pcie.Config{}
	err := bad3.Validate()
	if err == nil {
		t.Fatal("zero-value PCIe config passed validation")
	}
	if !strings.Contains(err.Error(), "Config.PCIe") {
		t.Fatalf("PCIe error does not name the field: %v", err)
	}
	bad4 := cfg
	bad4.CPUThreads = cfg.CPU.MaxThreads() + 1
	err = bad4.Validate()
	if err == nil {
		t.Fatal("CPUThreads beyond the machine maximum passed validation")
	}
	if !strings.Contains(err.Error(), "Config.CPUThreads") {
		t.Fatalf("CPUThreads error does not name the field: %v", err)
	}
	bad5 := cfg
	bad5.MICThreads = cfg.MIC.MaxThreads() + 1
	err = bad5.Validate()
	if err == nil {
		t.Fatal("MICThreads beyond the device maximum passed validation")
	}
	if !strings.Contains(err.Error(), "Config.MICThreads") {
		t.Fatalf("MICThreads error does not name the field: %v", err)
	}
	bad6 := cfg
	bad6.Faults.DMARate = 2
	if err := bad6.Validate(); err == nil {
		t.Fatal("out-of-range fault rate passed validation")
	}
}

func TestFinishTwicePanics(t *testing.T) {
	r := New(DefaultConfig())
	r.Finish()
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish did not panic")
		}
	}()
	r.Finish()
}

func TestRunWithSetupInjectsInputs(t *testing.T) {
	p, err := interp.Compile(`
float data[8];
float total;
int main(void) {
    int i;
    total = 0.0;
    for (i = 0; i < 8; i++) {
        total += data[i];
    }
    return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunWithSetup(p, DefaultConfig(), func(pp *interp.Program) error {
		return pp.SetArray("data", []float64{1, 1, 1, 1, 2, 2, 2, 2})
	})
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Program.Scalar("total")
	if v != 12 {
		t.Fatalf("total = %v, want 12", v)
	}
}

func TestDeviceFasterThanHostOnParallelKernel(t *testing.T) {
	// A compute-heavy vectorizable kernel: 200 MIC threads should beat 4
	// CPU threads even after paying for transfers.
	hostSrc := `
float a[262144];
float b[262144];
int main(void) {
    int i;
    #pragma omp parallel for
    for (i = 0; i < 262144; i++) {
        float acc = a[i];
        int k;
        for (k = 0; k < 8; k++) {
            acc = exp(log(sqrt(acc + 2.0) + 1.0)) * 3.0 + pow(acc + 1.0, 0.5);
        }
        b[i] = acc;
    }
    return 0;
}
`
	micSrc := `
float a[262144];
float b[262144];
int main(void) {
    int i;
    #pragma offload target(mic:0) in(a : length(262144)) out(b : length(262144))
    #pragma omp parallel for
    for (i = 0; i < 262144; i++) {
        float acc = a[i];
        int k;
        for (k = 0; k < 8; k++) {
            acc = exp(log(sqrt(acc + 2.0) + 1.0)) * 3.0 + pow(acc + 1.0, 0.5);
        }
        b[i] = acc;
    }
    return 0;
}
`
	cfg := DefaultConfig()
	host := mustRun(t, hostSrc, cfg)
	mic := mustRun(t, micSrc, cfg)
	if mic.Stats.Time >= host.Stats.Time {
		t.Fatalf("MIC %v not faster than CPU %v on compute-bound kernel", mic.Stats.Time, host.Stats.Time)
	}
}

func TestStatsDurationsNonNegative(t *testing.T) {
	res := mustRun(t, simpleOffload, DefaultConfig())
	st := res.Stats
	for name, d := range map[string]engine.Duration{
		"time": st.Time, "host": st.HostBusy, "device": st.DeviceBusy,
		"transfer": st.TransferBusy, "overlap": st.Overlap,
	} {
		if d < 0 {
			t.Errorf("%s = %v, want >= 0", name, d)
		}
	}
}
