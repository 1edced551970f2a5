package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"comp/internal/interp"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/workloads"
)

// program is one MiniC input with what the oracle needs to check it.
type program struct {
	name    string
	src     string // offload-annotated source, as a client sends it
	setup   func(*interp.Program) error
	outputs []string
	oracle  string // pragma-stripped source the tree-walker runs
	// cpuThreads overrides the host thread count for registry programs,
	// as the serving layer does for workload jobs.
	cpuThreads int
}

// registryProgram wraps a registry benchmark.
func registryProgram(name string) (*program, error) {
	b, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	oracle, err := b.CPUSource()
	if err != nil {
		return nil, err
	}
	return &program{name: b.Name, src: b.Source, setup: b.Setup, outputs: b.Outputs, oracle: oracle, cpuThreads: b.CPUThreads}, nil
}

// registryPrograms wraps every MiniC benchmark of the registry (the
// shared-memory ones have no MiniC source), in Table II order.
func registryPrograms() ([]*program, error) {
	var out []*program
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		p, err := registryProgram(b.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// generatedProgram wraps a generated program.
func generatedProgram(name string, g genProgram) (*program, error) {
	oracle, err := stripOffload(g.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &program{name: name, src: g.Source, outputs: g.Outputs, oracle: oracle}, nil
}

// want runs the oracle.
func (p *program) want() (outputs, error) {
	out, err := oracleRun(p.oracle, p.setup, p.outputs)
	if err != nil {
		return nil, fmt.Errorf("%s oracle: %w", p.name, err)
	}
	return out, nil
}

// platform is the simulated machine the program is measured on.
func (p *program) platform(cfg runtime.Config) runtime.Config {
	cfg.DisableTrace = true
	if p.cpuThreads > 0 {
		cfg.CPUThreads = p.cpuThreads
	}
	return cfg
}

// simulate compiles src and runs it once on the simulated platform,
// returning the makespan and the output arrays.
func (p *program) simulate(src string, cfg runtime.Config) (engine.Duration, outputs, error) {
	prog, err := interp.Compile(src)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", p.name, err)
	}
	res, err := runtime.RunWithSetup(prog, p.platform(cfg), p.setup)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", p.name, err)
	}
	out, err := collect(prog, p.outputs)
	return res.Stats.Time, out, err
}

// hashOutputs digests output arrays, bit for bit and in name order, so an
// op's answer can be kept and held to the oracle after the timed phase.
func hashOutputs(out map[string][]float64) uint64 {
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		for _, v := range out[name] {
			bits := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
