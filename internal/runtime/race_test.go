package runtime

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"comp/internal/interp"
)

// racySingleBuffer is a broken hand-written pipeline: it prefetches the
// next block into the SAME device buffer the current kernel reads. The
// interpreter's sequential execution still computes correct values, but
// on real hardware the DMA would overwrite data mid-kernel; the runtime's
// timing-domain race detector must flag it.
const racySingleBuffer = `
float src[65536];
float dst[65536];
float *buf;
float *outb;
int sig;
int n;

int main(void) {
    int i;
    int blk;
    n = 65536;
    int bs = n / 8;
    #pragma offload_transfer target(mic:0) nocopy(buf : length(bs) alloc_if(1) free_if(0)) nocopy(outb : length(bs) alloc_if(1) free_if(0))
    #pragma offload_transfer target(mic:0) in(src[0 : bs] : into(buf) alloc_if(0) free_if(0)) signal(&sig)
    for (blk = 0; blk < 8; blk++) {
        if (blk + 1 < 8) {
            // BUG: prefetch into the buffer the kernel is about to read.
            #pragma offload_transfer target(mic:0) in(src[(blk + 1) * bs : bs] : into(buf) alloc_if(0) free_if(0)) signal(&sig)
        }
        #pragma offload target(mic:0) out(outb[0 : bs] : into(dst[blk * bs : bs]) alloc_if(0) free_if(0))
        #pragma omp parallel for
        for (i = 0; i < bs; i++) {
            outb[i] = sqrt(buf[i] + 1.0) * 2.0 + exp(buf[i] * 0.0001);
        }
    }
    return 0;
}
`

func TestRaceDetectorFlagsSingleBufferPipeline(t *testing.T) {
	p, err := interp.Compile(racySingleBuffer)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.RaceWarnings) == 0 {
		t.Fatal("single-buffer pipeline produced no race warnings")
	}
	w := res.Stats.RaceWarnings[0]
	if !strings.Contains(w, `device buffer "buf"`) {
		t.Fatalf("warning does not name the racy buffer: %s", w)
	}
}

func TestRaceDetectorCleanOnCorrectPipeline(t *testing.T) {
	// The correctly double-buffered pipeline from the streaming tests.
	p, err := interp.Compile(streamedSource(1<<17, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.RaceWarnings) != 0 {
		t.Fatalf("correct pipeline flagged: %v", res.Stats.RaceWarnings)
	}
}

func TestRaceDetectorCleanOnSynchronousOffload(t *testing.T) {
	p, err := interp.Compile(simpleOffload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.RaceWarnings) != 0 {
		t.Fatalf("synchronous offload flagged: %v", res.Stats.RaceWarnings)
	}
}

// racy64Blocks is racySingleBuffer over 64 blocks of 4096 elements, where
// every prefetch overlaps a kernel (at 64 blocks of 1024 the transfers are
// too short to race past the first).
func racy64Blocks() string {
	s := strings.ReplaceAll(racySingleBuffer, "65536", "262144")
	s = strings.ReplaceAll(s, "blk < 8", "blk < 64")
	s = strings.ReplaceAll(s, "blk + 1 < 8", "blk + 1 < 64")
	return strings.ReplaceAll(s, "n / 8", "n / 64")
}

// TestRaceWarningsCapped: racy64Blocks races more than maxRaceWarnings
// times; the report keeps the first maxRaceWarnings races and says how
// many it dropped in a final "... and N more" entry.
func TestRaceWarningsCapped(t *testing.T) {
	p, err := interp.Compile(racy64Blocks())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	warns := res.Stats.RaceWarnings
	if len(warns) != maxRaceWarnings+1 {
		t.Fatalf("warnings = %d, want %d: the races must exceed the cap", len(warns), maxRaceWarnings+1)
	}
	var more int
	if _, err := fmt.Sscanf(warns[maxRaceWarnings], "... and %d more", &more); err != nil || more < 1 {
		t.Fatalf("truncated list lacks the '... and N more' sentinel: %q", warns[maxRaceWarnings])
	}
	for _, w := range warns[:maxRaceWarnings] {
		if !strings.Contains(w, `device buffer "buf"`) {
			t.Fatalf("warning does not name the racy buffer: %s", w)
		}
	}
}

// racesQuadratic is the reference race scan: every fired DMA write against
// every fired kernel use, in (write, kernel) order, untruncated.
func racesQuadratic(writes, uses []interval) []string {
	var warns []string
	for _, w := range writes {
		if !w.done.Fired() {
			continue
		}
		ws, we := w.bounds()
		for _, k := range uses {
			if k.buf != w.buf || !k.done.Fired() {
				continue
			}
			if w.hiByte <= k.loByte || k.hiByte <= w.loByte {
				continue
			}
			ks, ke := k.bounds()
			if ws < ke && ks < we {
				warns = append(warns, fmt.Sprintf(
					"race on device buffer %q: transfer %s [%v,%v) overlaps kernel %s [%v,%v)",
					w.buf, w.label, ws, we, k.label, ks, ke))
			}
		}
	}
	return warns
}

// TestRaceWarningsMatchQuadraticReference pins RaceWarnings, truncation
// included, to the quadratic reference scan on racy pipelines of 8 and 64
// blocks, a pipeline racing on two buffers, one prefetch racing with many
// kernels, and a correct pipeline.
func TestRaceWarningsMatchQuadraticReference(t *testing.T) {
	// Two racy buffers: each prefetch also writes the block the kernel is
	// about to produce into outb, which the kernel writes.
	twoBuffers := strings.ReplaceAll(racySingleBuffer,
		"in(src[(blk + 1) * bs : bs] : into(buf) alloc_if(0) free_if(0)) signal(&sig)",
		"in(src[(blk + 1) * bs : bs] : into(buf) alloc_if(0) free_if(0)) in(src[blk * bs : bs] : into(outb) alloc_if(0) free_if(0)) signal(&sig)")
	// One long prefetch into buf races with 24 short kernels, each also
	// touching outb: the warnings must keep the kernels' order.
	manyKernels := `
float src[1048576];
float dst[65536];
float *buf;
float *outb;
int sig;
int main(void) {
    int i;
    int k;
    int n;
    n = 1048576;
    #pragma offload_transfer target(mic:0) nocopy(buf : length(n) alloc_if(1) free_if(0)) nocopy(outb : length(64) alloc_if(1) free_if(0))
    #pragma offload_transfer target(mic:0) in(src[0 : n] : into(buf) alloc_if(0) free_if(0)) signal(&sig)
    for (k = 0; k < 24; k++) {
        #pragma offload target(mic:0) nocopy(buf : length(n) alloc_if(0) free_if(0)) out(outb[0 : 64] : into(dst[k * 64 : 64]) alloc_if(0) free_if(0))
        #pragma omp parallel for
        for (i = 0; i < 64; i++) {
            outb[i] = buf[i + k] * 2.0;
        }
    }
    #pragma offload_wait target(mic:0) wait(&sig)
    return 0;
}
`
	for _, tc := range []struct {
		name        string
		src         string
		min, maxRef int      // bounds on the untruncated reference count
		bufs        []string // buffers the reference must name
	}{
		{"8-blocks", racySingleBuffer, 1, maxRaceWarnings, []string{"buf"}},
		{"64-blocks", racy64Blocks(), maxRaceWarnings + 1, 1 << 20, []string{"buf"}},
		{"two-buffers", twoBuffers, 1, 1 << 20, []string{"buf", "outb"}},
		{"one-write-many-kernels", manyKernels, maxRaceWarnings + 1, 1 << 20, []string{"buf"}},
		{"correct", streamedSource(1<<17, 8, false), 0, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := interp.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Reset(); err != nil {
				t.Fatal(err)
			}
			r := New(DefaultConfig())
			if err := p.Run(r); err != nil {
				t.Fatal(err)
			}
			writes, uses := slices.Clone(r.bufWrites), slices.Clone(r.kernelUses)
			st := r.Finish()
			ref := racesQuadratic(writes, uses)
			if len(ref) < tc.min || len(ref) > tc.maxRef {
				t.Fatalf("reference found %d races, want [%d, %d]", len(ref), tc.min, tc.maxRef)
			}
			for _, b := range tc.bufs {
				if !strings.Contains(strings.Join(ref, "\n"), fmt.Sprintf("device buffer %q", b)) {
					t.Fatalf("reference names no race on %q: %q", b, ref)
				}
			}
			want := truncateWarnings(ref)
			if !reflect.DeepEqual(st.RaceWarnings, want) {
				t.Fatalf("RaceWarnings differ from the reference:\n got %q\nwant %q", st.RaceWarnings, want)
			}
			if got := r.detectRaces(); !reflect.DeepEqual(got, want) {
				t.Fatalf("detectRaces differs from the reference:\n got %q\nwant %q", got, want)
			}
		})
	}
}
