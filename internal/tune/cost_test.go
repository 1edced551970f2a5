package tune

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
)

func testModel(b Baseline, w Features) *CostModel {
	return &CostModel{Workload: w, Baseline: b, Target: runtime.DefaultConfig()}
}

// kneeOf returns the block count past which the predicted cost of c is
// non-decreasing in blocks: the larger of the transfer-bound knee
// (Ds−Cs)/K — where per-block compute stops hiding under transfer — and
// the compute-bound optimum sqrt(Ds/K). Past both, every extra block only
// adds launch overhead. Non-streaming specs have no knee (returns 1:
// predicted cost is constant in blocks). It is the reference point of the
// monotonicity property below.
func kneeOf(m *CostModel, c Config) int {
	ds, cs, k, _, streamed := m.components(c)
	if !streamed || k <= 0 {
		return 1
	}
	n := (ds - cs) / k
	if s := math.Sqrt(ds / k); s > n {
		n = s
	}
	if n < 1 {
		return 1
	}
	return int(math.Ceil(n))
}

func randBaseline(r *rand.Rand) Baseline {
	d := engine.Duration(1000 + r.Int63n(10_000_000))
	c := engine.Duration(1000 + r.Int63n(10_000_000))
	k := engine.Duration(10 + r.Int63n(10_000))
	return Baseline{Transfer: d, Compute: c, Launch: k, Launches: 1 + r.Int63n(50), Time: d + c}
}

func randFeatures(r *rand.Rand) Features {
	w := Features{
		Loops:        float64(1 + r.Intn(6)),
		Iters:        float64(r.Intn(1 << 20)),
		AccessBytes:  float64(r.Intn(64)),
		Irregular:    r.Float64(),
		Vectorizable: r.Float64(),
		StreamLegal:  r.Float64(),
		Reuse:        r.Float64(),
	}
	w.RegUnlocks = (1 - w.StreamLegal) * r.Float64()
	if r.Intn(2) == 0 {
		w.MergeCands = 1
		w.MergeInner = float64(2 + r.Intn(3))
	}
	return w
}

// Satellite property 1: past the transfer-bound knee, the predicted cost
// is monotone non-decreasing in the block count — more blocks only add
// launch overhead once transfers can no longer hide behind compute.
func TestPredictMonotonePastKnee(t *testing.T) {
	specs := []string{
		"streaming",
		"regularize,streaming",
		pass.DefaultSpec,
		"merge,streaming,regularize",
	}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := testModel(randBaseline(r), randFeatures(r))
		c := Config{Spec: specs[r.Intn(len(specs))]}
		knee := kneeOf(m, c)
		prev := engine.Duration(0)
		for i := 0; i <= 64; i++ {
			c.Blocks = knee + i
			got := m.Predict(c)
			// ±2ns slack absorbs the float→Duration truncation inside
			// the model evaluation.
			if i > 0 && got+2 < prev {
				t.Logf("seed %d: spec %q knee %d: Predict(%d)=%d < Predict(%d)=%d",
					seed, c.Spec, knee, c.Blocks, got, c.Blocks-1, prev)
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBestBlocksMatchesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		m := testModel(randBaseline(r), randFeatures(r))
		c := Config{Spec: pass.DefaultSpec}
		got := m.BestBlocks(c)
		best, bestT := 0, engine.Duration(1<<62)
		for _, n := range []int{2, 4, 8, 10, 20, 40, 50} {
			c.Blocks = n
			if d := m.Predict(c); d < bestT {
				best, bestT = n, d
			}
		}
		if got != best {
			t.Fatalf("BestBlocks = %d, exhaustive best = %d", got, best)
		}
	}
}

func TestPredictNonStreamingIgnoresBlocks(t *testing.T) {
	m := testModel(Baseline{Transfer: 1e6, Compute: 2e6, Launch: 1000, Launches: 10},
		Features{Loops: 2, Irregular: 0.5, Vectorizable: 0.5})
	a := m.Predict(Config{Spec: "merge,regularize", Blocks: 2})
	b := m.Predict(Config{Spec: "merge,regularize", Blocks: 50})
	if a != b {
		t.Fatalf("non-streaming predict depends on blocks: %d vs %d", a, b)
	}
	if knee := kneeOf(m, Config{Spec: "merge,regularize"}); knee != 1 {
		t.Fatalf("non-streaming knee = %d, want 1", knee)
	}
}

// Regularize-before-streaming must never price worse than
// streaming-before-regularize on a workload whose loops only become
// streamable after regularization — the §IV ordering argument.
func TestOrderingMatters(t *testing.T) {
	m := testModel(
		Baseline{Transfer: 5e6, Compute: 5e6, Launch: 1000, Launches: 10, Time: 10e6},
		Features{Loops: 2, Irregular: 0.6, Vectorizable: 0.4, StreamLegal: 0, RegUnlocks: 1},
	)
	canon := m.Predict(Config{Spec: "regularize,streaming", Blocks: 20})
	swapped := m.Predict(Config{Spec: "streaming,regularize", Blocks: 20})
	if canon > swapped {
		t.Fatalf("regularize,streaming (%d) priced worse than streaming,regularize (%d)", canon, swapped)
	}
}
