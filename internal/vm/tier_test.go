package vm

import (
	"errors"
	"testing"

	"comp/internal/interp"
)

// tierSource has one qualifying loop over 600 elements (three column
// blocks) and, with bound 12 over an 8-element array, faults right after
// the tier has run the in-range part of its second loop.
const tierSource = `
float x[600];
float y[8];
int n;
int main(void) {
    int i;
    for (i = 0; i < 600; i++) { x[i] = i * 0.5 + 1.0; }
    for (i = 0; i < n; i++) { y[i] = x[i] * 2.0; }
    return 0;
}
`

// TestTierEngages: an engine from NewEngine, Factory or Attach runs
// qualifying loops through the columnar tier, counted per batch on the
// engine; NewScalarEngine runs none. A run that faults after the tier ran
// still returns its scratch and reports its batches.
func TestTierEngages(t *testing.T) {
	engines := []struct {
		name string
		mk   func(p *interp.Program) (*Engine, error)
		want int64 // batches per clean run
	}{
		{"NewEngine", NewEngine, 2},
		{"Factory", func(p *interp.Program) (*Engine, error) {
			e, err := Factory(p)
			if err != nil {
				return nil, err
			}
			return e.(*Engine), nil
		}, 2},
		{"Attach", func(p *interp.Program) (*Engine, error) {
			if err := Attach(p); err != nil {
				return nil, err
			}
			return p.Engine().(*Engine), nil
		}, 2},
		{"NewScalarEngine", NewScalarEngine, 0},
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			p, err := interp.Compile(tierSource)
			if err != nil {
				t.Fatal(err)
			}
			p.SetEngine(nil)
			e, err := tc.mk(p)
			if err != nil {
				t.Fatal(err)
			}
			run := func(n float64) error {
				if err := p.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := p.SetScalar("n", n); err != nil {
					t.Fatal(err)
				}
				return e.Run(p, interp.NullBackend{})
			}
			if err := run(8); err != nil {
				t.Fatal(err)
			}
			if got := e.vecRuns.Load(); got != tc.want {
				t.Fatalf("clean run: %d batches, want %d", got, tc.want)
			}
			var re *interp.RuntimeError
			if err := run(12); !errors.As(err, &re) {
				t.Fatalf("run past y's end: error %v, want a *interp.RuntimeError", err)
			}
			if got := e.vecRuns.Load(); got != 2*tc.want {
				t.Fatalf("after the faulting run: %d batches, want %d", got, 2*tc.want)
			}
		})
	}
}
