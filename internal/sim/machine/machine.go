// Package machine provides the performance model of the host CPU and the
// manycore coprocessor used by the simulator.
//
// The model is deliberately simple and documented: a loop's execution time
// is the maximum of its compute time (a roofline over cores × clock × IPC ×
// SIMD lanes) and its memory time (bytes over effective bandwidth), plus
// any serial portion executed on a single thread. Irregular (gathered)
// accesses disable vectorization and waste cache-line bandwidth, which is
// exactly the coupling the paper's regularization optimization exploits.
package machine

import (
	"fmt"

	"comp/internal/sim/engine"
)

// Config describes one processor (host CPU or coprocessor).
type Config struct {
	Name           string
	Cores          int
	ThreadsPerCore int
	ClockGHz       float64
	// IPCPerCore is per-core sustained scalar operations per cycle when
	// enough hardware threads are resident to fill the pipeline.
	IPCPerCore float64
	// SingleThreadIPC is the sustained IPC of a single software thread on
	// one core. For the in-order MIC core this is far below IPCPerCore,
	// which is why native mode and serial sections on the card are slow.
	SingleThreadIPC float64
	// VectorLanes is the SIMD width in 32-bit lanes (16 for MIC's 512-bit
	// units, 8 for AVX on the host).
	VectorLanes int
	// VectorEff is the fraction of peak SIMD speedup achieved in practice.
	VectorEff float64
	// ScalarEff derates non-vectorizable parallel work. In-order cores
	// (the Phi's Pentium-derived cores) lose far more than out-of-order
	// hosts on branchy, irregular scalar code; this is why several
	// benchmarks run slower on 200 MIC threads than on 4 CPU threads
	// (Figure 1) even though peak scalar throughput favours the MIC.
	ScalarEff float64
	// MemBandwidthGBs is the aggregate DRAM bandwidth in GB/s.
	MemBandwidthGBs float64
	// SaturationCores is how many cores it takes to saturate the DRAM
	// bandwidth; a kernel engaging fewer cores sustains only a
	// proportional fraction. Zero means any core count reaches full
	// bandwidth (the pre-partitioning behaviour, kept for the host, whose
	// prefetchers saturate DRAM from very few cores). On the in-order
	// manycore card this is what makes device sharing profitable: a
	// quarter of the cores sustains well over a quarter of aggregate
	// bandwidth only up to the saturation knee, so one memory-bound
	// kernel on all cores leaves compute throughput idle that concurrent
	// streams can recover.
	SaturationCores int
	// CacheLineBytes is the line size used for irregular-access accounting.
	CacheLineBytes int
	// RandomAccessBytes is the useful payload per line on a gathered access
	// (e.g. one 4-byte element per 64-byte line).
	RandomAccessBytes int
	// MemBytes and OSReservedBytes size the device memory (zero for host).
	MemBytes        uint64
	OSReservedBytes uint64
	// LaunchOverhead is the fixed cost of launching one kernel (device only).
	LaunchOverhead engine.Duration
	// AllocOverhead is the host-visible cost of allocating one device
	// buffer. §III-A hoists allocation out of streamed loops because "the
	// allocation procedure will be invoked many times".
	AllocOverhead engine.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("machine %s: cores %d < 1", c.Name, c.Cores)
	case c.ThreadsPerCore < 1:
		return fmt.Errorf("machine %s: threads/core %d < 1", c.Name, c.ThreadsPerCore)
	case c.ClockGHz <= 0:
		return fmt.Errorf("machine %s: clock %v <= 0", c.Name, c.ClockGHz)
	case c.IPCPerCore <= 0 || c.SingleThreadIPC <= 0:
		return fmt.Errorf("machine %s: IPC must be positive", c.Name)
	case c.VectorLanes < 1:
		return fmt.Errorf("machine %s: vector lanes %d < 1", c.Name, c.VectorLanes)
	case c.VectorEff <= 0 || c.VectorEff > 1:
		return fmt.Errorf("machine %s: vector efficiency %v outside (0,1]", c.Name, c.VectorEff)
	case c.ScalarEff <= 0 || c.ScalarEff > 1:
		return fmt.Errorf("machine %s: scalar efficiency %v outside (0,1]", c.Name, c.ScalarEff)
	case c.MemBandwidthGBs <= 0:
		return fmt.Errorf("machine %s: memory bandwidth %v <= 0", c.Name, c.MemBandwidthGBs)
	case c.CacheLineBytes <= 0 || c.RandomAccessBytes <= 0:
		return fmt.Errorf("machine %s: cache line/random payload must be positive", c.Name)
	case c.RandomAccessBytes > c.CacheLineBytes:
		return fmt.Errorf("machine %s: random payload %d > line %d", c.Name, c.RandomAccessBytes, c.CacheLineBytes)
	case c.SaturationCores < 0:
		return fmt.Errorf("machine %s: saturation cores %d < 0", c.Name, c.SaturationCores)
	}
	return nil
}

// MaxThreads returns the hardware thread count.
func (c Config) MaxThreads() int { return c.Cores * c.ThreadsPerCore }

// coresFor returns the number of cores engaged by the given thread count.
func (c Config) coresFor(threads int) int {
	if threads < 1 {
		threads = 1
	}
	cores := (threads + c.ThreadsPerCore - 1) / c.ThreadsPerCore
	if cores > c.Cores {
		cores = c.Cores
	}
	return cores
}

// ScalarThroughput returns sustained scalar op/s with the given threads.
func (c Config) ScalarThroughput(threads int) float64 {
	cores := c.coresFor(threads)
	perCore := c.IPCPerCore
	// A core running fewer software threads than needed to fill its
	// pipeline sustains only the single-thread rate.
	if threads < cores*c.ThreadsPerCore && threads <= c.Cores {
		perCore = c.SingleThreadIPC
	}
	return float64(cores) * c.ClockGHz * 1e9 * perCore
}

// SerialTime returns the time for `flops` operations on one thread. This is
// the model behind the paper's observation that serial code hoisted onto the
// MIC by offload merging runs much slower than on the host.
func (c Config) SerialTime(flops float64) engine.Duration {
	return engine.DurationOf(flops / (c.ClockGHz * 1e9 * c.SingleThreadIPC))
}

// BandwidthAt returns the sustained DRAM bandwidth in GB/s reachable with
// the given number of engaged cores: linear up to SaturationCores, flat at
// the aggregate beyond. With SaturationCores zero it is always the
// aggregate.
func (c Config) BandwidthAt(cores int) float64 {
	if c.SaturationCores <= 0 || cores >= c.SaturationCores {
		return c.MemBandwidthGBs
	}
	if cores < 1 {
		cores = 1
	}
	return c.MemBandwidthGBs * float64(cores) / float64(c.SaturationCores)
}

// EffectiveBandwidth returns memory bandwidth in bytes/s given the fraction
// of traffic that is irregular, assuming enough cores to saturate DRAM.
// Each irregular element drags a whole cache line across the memory system
// but uses only RandomAccessBytes of it.
func (c Config) EffectiveBandwidth(irregularFrac float64) float64 {
	return c.effectiveBandwidthAt(irregularFrac, c.Cores)
}

func (c Config) effectiveBandwidthAt(irregularFrac float64, cores int) float64 {
	if irregularFrac < 0 {
		irregularFrac = 0
	}
	if irregularFrac > 1 {
		irregularFrac = 1
	}
	peak := c.BandwidthAt(cores) * 1e9
	lineWaste := float64(c.CacheLineBytes) / float64(c.RandomAccessBytes)
	// Weighted harmonic combination of regular and irregular traffic.
	denom := (1 - irregularFrac) + irregularFrac*lineWaste
	return peak / denom
}

// WorkTime estimates the wall time of a loop from its dynamically profiled
// operation and traffic totals using the given number of software threads.
// The estimate is a roofline: max(compute, memory), with vectorization
// gating the compute leg and irregularFrac derating the bandwidth.
func (c Config) WorkTime(flops, bytes, irregularFrac float64, vectorizable bool, threads int) engine.Duration {
	tp := c.ScalarThroughput(threads)
	if vectorizable {
		tp *= float64(c.VectorLanes) * c.VectorEff
	} else {
		tp *= c.ScalarEff
	}
	computeSec := flops / tp
	memSec := bytes / c.effectiveBandwidthAt(irregularFrac, c.coresFor(threads))
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	return engine.DurationOf(sec)
}

// Share is one stream's slice of a partitioned device: a derated Config
// (core count reduced; the memory roofline follows via SaturationCores)
// plus the software thread count filling exactly those cores.
type Share struct {
	Config  Config
	Cores   int
	Threads int
}

// Partition splits the device engaged by `threads` software threads into
// `parts` core-disjoint shares, whole cores only, remainders handed out
// from the first share on. Thread counts are multiples of ThreadsPerCore so
// every share's cores run with full pipelines (no single-thread IPC
// penalty). It errors when there are not enough engaged cores to give every
// share at least one.
func (c Config) Partition(threads, parts int) ([]Share, error) {
	if parts < 1 {
		return nil, fmt.Errorf("machine %s: partition into %d parts", c.Name, parts)
	}
	total := c.coresFor(threads)
	if parts > total {
		return nil, fmt.Errorf("machine %s: %d streams exceed the %d cores engaged by %d threads",
			c.Name, parts, total, threads)
	}
	base, rem := total/parts, total%parts
	shares := make([]Share, parts)
	for i := range shares {
		cores := base
		if i < rem {
			cores++
		}
		cfg := c
		cfg.Cores = cores
		shares[i] = Share{Config: cfg, Cores: cores, Threads: cores * c.ThreadsPerCore}
	}
	return shares, nil
}
