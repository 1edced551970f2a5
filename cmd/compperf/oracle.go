package main

import (
	"fmt"
	"math"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// outputs maps a program's output array names to their contents.
type outputs map[string][]float64

// stripOffload returns src with every offload pragma removed: the plain
// OpenMP program the oracle runs.
func stripOffload(src string) (string, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return "", err
	}
	workloads.StripOffload(f)
	return minic.Print(f), nil
}

// oracleRun executes src on the tree-walker, which is the contract every
// engine is held to, and returns the named arrays. Callers pass the
// pragma-stripped source so neither the compiler nor the VM is involved.
func oracleRun(src string, setup func(*interp.Program) error, names []string) (outputs, error) {
	p, err := interp.Compile(src)
	if err != nil {
		return nil, err
	}
	if err := vm.Apply(p, vm.ExecInterp); err != nil {
		return nil, err
	}
	return execute(p, setup, names)
}

// execute runs a compiled program on the null backend (values only, no
// simulated timing) and copies out the named arrays.
func execute(p *interp.Program, setup func(*interp.Program) error, names []string) (outputs, error) {
	if err := p.Reset(); err != nil {
		return nil, err
	}
	if setup != nil {
		if err := setup(p); err != nil {
			return nil, err
		}
	}
	if err := p.Run(interp.NullBackend{}); err != nil {
		return nil, err
	}
	return collect(p, names)
}

// collect copies the named arrays out of an executed program.
func collect(p *interp.Program, names []string) (outputs, error) {
	out := make(outputs, len(names))
	for _, name := range names {
		data, err := p.ArrayData(name)
		if err != nil {
			return nil, err
		}
		out[name] = append([]float64(nil), data...)
	}
	return out, nil
}

// diff reports the first array element where got differs from want, bit
// for bit, or nil when every named array matches.
func (want outputs) diff(got map[string][]float64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("output %s missing", name)
		}
		if len(g) != len(w) {
			return fmt.Errorf("output %s has %d elements, want %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return fmt.Errorf("output %s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	return nil
}
