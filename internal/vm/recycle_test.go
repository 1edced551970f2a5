package vm_test

import (
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// recycleCases are programs whose device buffers are freed and allocated
// again under the same name within one run, where a recycled buffer
// (interp.Program.AllocDevBuf) must read exactly like a fresh zeroed one.
// want is the printf output a fresh allocation gives, or a substring of
// the fault.
var recycleCases = []struct {
	name, src, want string
	fault           bool
}{
	// An out-only buffer reallocated under the same name, written only in
	// part by the second kernel: the host must read zeros, not the first
	// kernel's values.
	{name: "out-zeroed", want: "40 80\n40 0\n", src: `
float a[8];
float b[8];
int lim;
int main(void) {
    int i;
    int r;
    for (i = 0; i < 8; i++) {
        a[i] = i + 1.0;
    }
    for (r = 0; r < 2; r++) {
        lim = 8 - r * 4;
        #pragma offload target(mic:0) in(lim) in(a : length(8)) out(b : length(8))
        #pragma omp parallel for
        for (i = 0; i < lim; i++) {
            b[i] = a[i] * 10.0;
        }
        printf("%g %g\n", b[3], b[7]);
    }
    return 0;
}
`},
	// The same name reallocated at lengths 8, 4, 4, 8.
	{name: "new-length", want: "8 36\n4 10\n4 10\n8 36\n", src: `
float a[8];
float b[8];
int n;
int main(void) {
    int i;
    int r;
    float s;
    for (i = 0; i < 8; i++) {
        a[i] = i + 1.0;
    }
    for (r = 0; r < 4; r++) {
        n = 8;
        if (r == 1 || r == 2) {
            n = 4;
        }
        for (i = 0; i < 8; i++) {
            b[i] = 0.0;
        }
        #pragma offload target(mic:0) in(n) in(a : length(n)) out(b : length(n))
        #pragma omp parallel for
        for (i = 0; i < n; i++) {
            b[i] = a[i];
        }
        s = 0.0;
        for (i = 0; i < 8; i++) {
            s = s + b[i];
        }
        printf("%d %g\n", n, s);
    }
    return 0;
}
`},
	// alloc_if(0) after free_if(1): the freed buffer is gone, however the
	// host keeps it for recycling.
	{name: "alloc-after-free", fault: true, want: "device buffer a used before allocation", src: `
float a[8];
float b[8];
int main(void) {
    int i;
    #pragma offload target(mic:0) in(a : length(8)) out(b : length(8))
    #pragma omp parallel for
    for (i = 0; i < 8; i++) {
        b[i] = a[i] + 1.0;
    }
    #pragma offload target(mic:0) in(a : length(8) alloc_if(0) free_if(1)) out(b : length(8))
    #pragma omp parallel for
    for (i = 0; i < 8; i++) {
        b[i] = a[i] + 2.0;
    }
    return 0;
}
`},
	// A kernel points a host local at a device buffer that is then freed:
	// the local keeps the first kernel's data, so the second offload's
	// buffer of the same name must not be the recycled one.
	{name: "alias-outlives-free", want: "1 4 200\n", src: `
float a[4];
float b[4];
int main(void) {
    int i;
    float *p;
    for (i = 0; i < 4; i++) {
        a[i] = i + 1.0;
    }
    #pragma offload target(mic:0) in(a : length(4)) out(b : length(4))
    #pragma omp parallel for
    for (i = 0; i < 4; i++) {
        p = a;
        b[i] = a[i];
    }
    for (i = 0; i < 4; i++) {
        a[i] = 100.0;
    }
    #pragma offload target(mic:0) in(a : length(4)) out(b : length(4))
    #pragma omp parallel for
    for (i = 0; i < 4; i++) {
        b[i] = a[i] * 2.0;
    }
    printf("%g %g %g\n", p[0], p[3], b[0]);
    return 0;
}
`},
}

// TestVMDiffRecycledBuffers holds the tree-walker, the scalar VM and the
// VM to bit-identical outputs, work and faults on the recycle cases, and
// the tree-walker to the output a fresh allocation gives.
func TestVMDiffRecycledBuffers(t *testing.T) {
	for _, tc := range recycleCases {
		t.Run(tc.name, func(t *testing.T) {
			diffRun(t, tc.src, nil, 0)
			ref := execSource(t, tc.src, nil, vm.ExecInterp, 0)
			switch {
			case tc.fault && (ref.err == nil || !strings.Contains(ref.err.Error(), tc.want)):
				t.Fatalf("fault = %v, want one containing %q", ref.err, tc.want)
			case !tc.fault && ref.err != nil:
				t.Fatalf("run failed: %v", ref.err)
			case !tc.fault && ref.out != tc.want:
				t.Fatalf("output = %q, want %q", ref.out, tc.want)
			}
		})
	}
}

// bufferCounter counts the distinct device buffers a run offloads with,
// by the identity of their storage, and the offloads themselves.
type bufferCounter struct {
	interp.NullBackend
	p        *interp.Program
	names    []string
	offloads int
	seen     map[*float64]bool
}

func (b *bufferCounter) Offload(op *interp.OffloadOp) error {
	b.offloads++
	for _, name := range b.names {
		if d := b.p.DeviceArray(name); len(d) > 0 {
			b.seen[&d[0]] = true
		}
	}
	return nil
}

// TestBFSAllocatesEachDeviceBufferOnce: bfs offloads its five buffers on
// each of its 10 levels with LEO's default alloc_if(1) free_if(1); each
// engine allocates each buffer once per run (5 buffers, not 50), and a run
// after Reset allocates its own five: Reset keeps no freed buffer.
func TestBFSAllocatesEachDeviceBufferOnce(t *testing.T) {
	b, err := workloads.Get("bfs")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{vm.ExecInterp, execScalar, vm.ExecVM} {
		t.Run(mode, func(t *testing.T) {
			p, err := interp.Compile(b.Source)
			if err != nil {
				t.Fatal(err)
			}
			p.SetEngine(nil)
			switch mode {
			case vm.ExecVM:
				err = vm.Attach(p)
			case execScalar:
				var e *vm.Engine
				if e, err = vm.NewScalarEngine(p); err == nil {
					p.SetEngine(e)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			bc := &bufferCounter{p: p, names: []string{"rs", "col", "front", "dist", "next"}, seen: map[*float64]bool{}}
			for run := 1; run <= 2; run++ {
				if err := p.Reset(); err != nil {
					t.Fatal(err)
				}
				if err := b.Setup(p); err != nil {
					t.Fatal(err)
				}
				if err := p.Run(bc); err != nil {
					t.Fatal(err)
				}
				if bc.offloads != 10*run || len(bc.seen) != 5*run {
					t.Fatalf("after run %d: %d offloads over %d distinct device buffers, want %d over %d",
						run, bc.offloads, len(bc.seen), 10*run, 5*run)
				}
			}
		})
	}
}
