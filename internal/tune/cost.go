package tune

import (
	"math"
	"strings"

	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/transform"
)

// Config is one candidate configuration the tuner can select: a pass
// pipeline spec (empty = compile unoptimized) and the streaming block count
// (meaningful only when the spec streams).
type Config struct {
	Spec   string `json:"spec"`
	Blocks int    `json:"blocks"`
}

func specStreams(spec string) bool {
	for _, name := range strings.Split(spec, ",") {
		if strings.TrimSpace(name) == "streaming" {
			return true
		}
	}
	return false
}

// Baseline carries the measurements of one unoptimized run — the same
// D/C/K decomposition the §III-B block model uses, plus the launch count
// so merging can be priced.
type Baseline struct {
	Transfer engine.Duration `json:"transfer"` // D: total DMA busy time
	Compute  engine.Duration `json:"compute"`  // C: kernel time net of launches
	Launch   engine.Duration `json:"launch"`   // K: per-launch overhead
	Launches int64           `json:"launches"`
	Time     engine.Duration `json:"time"` // unoptimized makespan
}

// BaselineFromStats derives the baseline from an unoptimized run's stats.
func BaselineFromStats(st runtime.Stats, launch engine.Duration) Baseline {
	c := st.DeviceBusy - engine.Duration(st.KernelLaunches)*launch
	if c < 0 {
		c = 0
	}
	return Baseline{
		Transfer: st.TransferBusy,
		Compute:  c,
		Launch:   launch,
		Launches: st.KernelLaunches,
		Time:     st.Time,
	}
}

// Blocks is the §III-B model's block count for the baseline: what
// OptimizeFile streams with when given the baseline, and the seed of
// every block-count climb.
func (b Baseline) Blocks() int {
	return transform.OptimalBlocks(b.Transfer, b.Compute, b.Launch)
}

// CostModel prices candidate configurations without running them. It
// starts from a measured baseline (D, C, K of one unoptimized run on the
// target machine), then walks the candidate spec in pipeline order
// applying each pass's analytic effect: merge collapses launches,
// regularization lifts the bandwidth derating and unlocks vectorization at
// the price of host-side gathers, streaming replaces the serial
// transfer+compute sum with the §III-B overlap model T(N).
//
// The model's job is ranking, not absolute accuracy — the simulator probes
// the top candidates and the measured times decide. Its absolute error is
// still surfaced: every decision remark records predicted vs measured.
type CostModel struct {
	Workload Features
	Baseline Baseline
	// Target is the machine being tuned for.
	Target runtime.Config
}

// components walks the spec in pipeline order, tracking what has been
// applied, and returns the streamed transfer/compute shares (ds, cs), the
// launch overhead k, the cost that does not depend on the block count
// (rest), and whether the spec streams anything.
func (m *CostModel) components(c Config) (ds, cs, k, rest float64, streamed bool) {
	d := float64(m.Baseline.Transfer)
	comp := float64(m.Baseline.Compute)
	k = float64(m.Baseline.Launch)
	launches := float64(m.Baseline.Launches)
	w := m.Workload

	streamFrac := 0.0
	gather := 0.0
	regularized := false
	for _, name := range strings.Split(c.Spec, ",") {
		switch strings.TrimSpace(name) {
		case "merge":
			if w.MergeInner >= 2 && w.Loops > 0 {
				// The launches inside merge candidates collapse to one
				// per candidate; the static loop-nest ratio apportions
				// the dynamic launch count.
				mf := w.MergeInner / w.Loops
				if mf > 1 {
					mf = 1
				}
				launches = launches*(1-mf) + w.MergeCands
			}
		case "regularize":
			if w.Irregular > 0 {
				// Irregular traffic stops dragging whole cache lines:
				// the derated share of compute speeds up by the
				// effective-bandwidth ratio, and the loops irregularity
				// kept off the vector units get the SIMD blend back.
				eff := m.Target.MIC.EffectiveBandwidth(w.Irregular) / m.Target.MIC.EffectiveBandwidth(0)
				vec := float64(m.Target.MIC.VectorLanes) * m.Target.MIC.VectorEff
				gain := vec / m.Target.MIC.ScalarEff
				if gain < 1 {
					gain = 1
				}
				comp = comp*(1-w.Irregular) + comp*w.Irregular*eff/gain
				// The permutation must be built host-side: the irregular
				// bytes cross host memory once more. Charged upfront
				// here; a later streaming pass overlaps it (pipelined
				// gathers) and removes the charge.
				gather = float64(d) * w.Irregular
				regularized = true
			}
		case "streaming":
			streamFrac = w.StreamLegal
			if regularized {
				streamFrac += w.RegUnlocks
			}
			if streamFrac > 1 {
				streamFrac = 1
			}
			if streamFrac > 0 {
				streamed = true
				gather = 0 // pipelined gathers ride the stream blocks
			}
		}
	}

	if !streamed {
		return 0, 0, k, d + comp + k*launches + gather, false
	}
	ds = d * streamFrac
	cs = comp * streamFrac
	rest = d*(1-streamFrac) + comp*(1-streamFrac) + k*launches*(1-streamFrac)
	return ds, cs, k, rest, true
}

// Predict returns the modeled makespan of one compilation under c.
func (m *CostModel) Predict(c Config) engine.Duration {
	ds, cs, k, rest, streamed := m.components(c)
	if !streamed {
		return engine.Duration(rest)
	}
	n := c.Blocks
	if n <= 0 {
		n = transform.DefaultBlocks
	}
	t := float64(transform.ModelTime(engine.Duration(ds), engine.Duration(cs), engine.Duration(k), n))
	return engine.Duration(t + rest)
}

// BestBlocks returns the block count minimizing the predicted cost of c
// over the ladder (c.Blocks is ignored). For non-streaming specs the
// choice is irrelevant and the first rung is returned.
func (m *CostModel) BestBlocks(c Config) int {
	ladder := Ladder()
	best, bestT := ladder[0], engine.Duration(math.MaxInt64)
	for _, n := range ladder {
		c.Blocks = n
		if t := m.Predict(c); t < bestT {
			best, bestT = n, t
		}
	}
	return best
}
