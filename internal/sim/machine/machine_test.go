package machine

import (
	"testing"
	"testing/quick"

	"comp/internal/sim/engine"
)

func TestDefaultConfigsValid(t *testing.T) {
	for _, c := range []Config{XeonE5(), XeonPhi()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	base := XeonE5()
	mutations := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = 0 },
		func(c *Config) { c.ClockGHz = 0 },
		func(c *Config) { c.IPCPerCore = 0 },
		func(c *Config) { c.SingleThreadIPC = -1 },
		func(c *Config) { c.VectorLanes = 0 },
		func(c *Config) { c.VectorEff = 0 },
		func(c *Config) { c.VectorEff = 1.5 },
		func(c *Config) { c.MemBandwidthGBs = 0 },
		func(c *Config) { c.CacheLineBytes = 0 },
		func(c *Config) { c.RandomAccessBytes = 128 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config passed Validate", i)
		}
	}
}

func TestMaxThreads(t *testing.T) {
	if got := XeonPhi().MaxThreads(); got != 240 {
		t.Errorf("Phi MaxThreads = %d, want 240", got)
	}
	if got := XeonE5().MaxThreads(); got != 8 {
		t.Errorf("E5 MaxThreads = %d, want 8", got)
	}
}

func TestMICSingleThreadSlowerThanCPU(t *testing.T) {
	// §II-B: "the performance of a single MIC thread is much worse than a
	// single CPU thread". The model must preserve this.
	cpu, mic := XeonE5(), XeonPhi()
	flops := 1e9
	if cpu.SerialTime(flops) >= mic.SerialTime(flops) {
		t.Fatalf("CPU serial %v should beat MIC serial %v",
			cpu.SerialTime(flops), mic.SerialTime(flops))
	}
	ratio := float64(mic.SerialTime(flops)) / float64(cpu.SerialTime(flops))
	if ratio < 5 {
		t.Errorf("MIC/CPU serial ratio %.1f, want >= 5 (in-order 1.05 GHz vs OoO 2.2 GHz)", ratio)
	}
}

func TestMICParallelFasterThanCPUWhenVectorizable(t *testing.T) {
	// The point of offloading: a fully parallel, vectorizable loop should
	// be faster on 200 MIC threads than on 4 CPU threads.
	cpu, mic := XeonE5(), XeonPhi()
	flops, bytes := 200.0*(1<<22), 8.0*(1<<22)
	ct := cpu.WorkTime(flops, bytes, 0, true, DefaultCPUThreads)
	mt := mic.WorkTime(flops, bytes, 0, true, DefaultMICThreads)
	if mt >= ct {
		t.Fatalf("MIC parallel %v should beat CPU parallel %v", mt, ct)
	}
}

func TestIrregularDisablesVectorSpeedup(t *testing.T) {
	mic := XeonPhi()
	flops, bytes := 50.0*(1<<20), 16.0*(1<<20)
	tr := mic.WorkTime(flops, bytes, 0, true, DefaultMICThreads)
	ti := mic.WorkTime(flops, bytes, 1, false, DefaultMICThreads)
	if ti <= tr {
		t.Fatalf("irregular loop %v should be slower than regular %v", ti, tr)
	}
}

func TestEffectiveBandwidthBounds(t *testing.T) {
	c := XeonPhi()
	peak := c.MemBandwidthGBs * 1e9
	if got := c.EffectiveBandwidth(0); got != peak {
		t.Errorf("regular bandwidth = %v, want peak %v", got, peak)
	}
	worst := peak * float64(c.RandomAccessBytes) / float64(c.CacheLineBytes)
	if got := c.EffectiveBandwidth(1); got != worst {
		t.Errorf("fully irregular bandwidth = %v, want %v", got, worst)
	}
	// Out-of-range fractions clamp.
	if got := c.EffectiveBandwidth(-3); got != peak {
		t.Errorf("clamped low = %v, want %v", got, peak)
	}
	if got := c.EffectiveBandwidth(7); got != worst {
		t.Errorf("clamped high = %v, want %v", got, worst)
	}
}

func TestEffectiveBandwidthMonotone(t *testing.T) {
	c := XeonPhi()
	prev := c.EffectiveBandwidth(0)
	for f := 0.1; f <= 1.0; f += 0.1 {
		cur := c.EffectiveBandwidth(f)
		if cur > prev {
			t.Fatalf("bandwidth increased with irregularity at frac %v", f)
		}
		prev = cur
	}
}

func TestLoopTimeZeroIters(t *testing.T) {
	if got := XeonPhi().WorkTime(0, 0, 0, false, 1); got != 0 {
		t.Errorf("zero iters time = %v, want 0", got)
	}
}

func TestLoopTimeScalesWithIterations(t *testing.T) {
	c := XeonPhi()
	t1 := c.WorkTime(100*1e6, 8*1e6, 0, true, 200)
	t2 := c.WorkTime(100*2e6, 8*2e6, 0, true, 200)
	ratio := float64(t2) / float64(t1)
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("doubling iterations scaled time by %v, want 2.0", ratio)
	}
}

func TestMoreThreadsNeverSlower(t *testing.T) {
	c := XeonPhi()
	prev := c.WorkTime(500*1e6, 4*1e6, 0, false, 1)
	for _, th := range []int{4, 16, 60, 120, 240, 400} {
		cur := c.WorkTime(500*1e6, 4*1e6, 0, false, th)
		if cur > prev {
			t.Fatalf("time increased from %v to %v at %d threads", prev, cur, th)
		}
		prev = cur
	}
}

func TestThreadsBeyondHardwareSaturate(t *testing.T) {
	c := XeonPhi()
	at240 := c.WorkTime(500*1e6, 4*1e6, 0, false, 240)
	at999 := c.WorkTime(500*1e6, 4*1e6, 0, false, 999)
	if at240 != at999 {
		t.Fatalf("oversubscription changed time: %v vs %v", at240, at999)
	}
}

func TestSerialTimeLinear(t *testing.T) {
	c := XeonE5()
	a := c.SerialTime(1e8)
	b := c.SerialTime(2e8)
	if b < a*2-engine.Duration(2) || b > a*2+engine.Duration(2) {
		t.Fatalf("serial time not linear: %v vs %v", a, b)
	}
}

func TestVectorizationSpeedsUpComputeBoundLoop(t *testing.T) {
	c := XeonPhi()
	tv := c.WorkTime(1000*1e6, 1*1e6, 0, true, 200)
	ts := c.WorkTime(1000*1e6, 1*1e6, 0, false, 200)
	ratio := float64(ts) / float64(tv)
	// The scalar path is additionally derated by ScalarEff (in-order
	// penalty), so the observed gap is lanes*vectorEff/scalarEff.
	want := float64(c.VectorLanes) * c.VectorEff / c.ScalarEff
	if ratio < want*0.9 || ratio > want*1.1 {
		t.Fatalf("vector speedup %v, want about %v", ratio, want)
	}
}

// Property: loop time is monotone non-decreasing in flops and bytes.
func TestLoopTimeMonotoneProperty(t *testing.T) {
	c := XeonPhi()
	f := func(flops, bytes uint16, extraF, extraB uint8, vec bool) bool {
		f1, b1 := float64(flops)*1e5, float64(bytes)*1e5
		f2, b2 := (float64(flops)+float64(extraF))*1e5, (float64(bytes)+float64(extraB))*1e5
		return c.WorkTime(f2, b2, 0, vec, 200) >= c.WorkTime(f1, b1, 0, vec, 200)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a loop's time is never below either roofline leg in isolation.
func TestRooflineLowerBoundProperty(t *testing.T) {
	c := XeonE5()
	f := func(flopsRaw, bytesRaw uint16) bool {
		flops, bytes := (float64(flopsRaw)+1)*1e5, (float64(bytesRaw)+1)*1e5
		full := c.WorkTime(flops, bytes, 0, false, 4)
		computeOnly := c.WorkTime(flops, 0, 0, false, 4)
		memOnly := c.WorkTime(0, bytes, 0, false, 4)
		return full >= computeOnly && full >= memOnly
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
