package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostSample is a snapshot of the process's host-side counters; the
// difference of two snapshots is what the work between them cost.
type hostSample struct {
	wall  time.Time
	cpu   time.Duration // user + system, all threads
	alloc uint64        // bytes allocated on the Go heap, cumulative
	gcs   uint64        // completed GC cycles
	gcCPU float64       // seconds of CPU the Go runtime attributes to GC
}

var hostMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

// sampleHost reads the counters without stopping the world.
func sampleHost() hostSample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	metrics.Read(hostMetrics)
	return hostSample{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: hostMetrics[0].Value.Uint64(),
		gcs:   hostMetrics[1].Value.Uint64(),
		gcCPU: hostMetrics[2].Value.Float64(),
	}
}

// hostCost is what some ops spent between two samples.
type hostCost struct {
	ops       int
	wall, cpu time.Duration
	allocKB   float64
	gcs       int
	gcCPUFrac float64 // GC CPU (the runtime's estimate) over process CPU
}

func (a hostSample) costUntil(b hostSample, ops int) hostCost {
	c := hostCost{
		ops:     ops,
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		allocKB: float64(b.alloc-a.alloc) / 1024,
		gcs:     int(b.gcs - a.gcs),
	}
	if c.cpu > 0 {
		c.gcCPUFrac = (b.gcCPU - a.gcCPU) / c.cpu.Seconds()
	}
	return c
}

// rate returns completed ops per second of wall time.
func (c hostCost) rate() float64 { return float64(c.ops) / c.wall.Seconds() }

// rssMiB reads the process's resident set size from /proc/self/statm.
func rssMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("/proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssEvery is how often the timed phase samples resident memory.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples resident memory every rssEvery until stop closes.
func sampleRSS(stop <-chan struct{}) ([]float64, error) {
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	var out []float64
	for {
		mib, err := rssMiB()
		if err != nil {
			return nil, err
		}
		out = append(out, mib)
		select {
		case <-stop:
			return out, nil
		case <-tick.C:
		}
	}
}
