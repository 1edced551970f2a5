package tune

import (
	"math"
	"strings"

	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/transform"
)

// Config is one candidate configuration the tuner can select: a pass
// pipeline spec (empty = compile unoptimized), the streaming block count
// (meaningful only when the spec streams), and the device-stream count for
// batched serving (0 = leave the caller's stream count alone).
type Config struct {
	Spec    string `json:"spec"`
	Blocks  int    `json:"blocks"`
	Streams int    `json:"streams,omitempty"`
}

func (c Config) streams() bool { return specStreams(c.Spec) }

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
// starts from a measured baseline (D, C, K of one unoptimized run),
// rescales it when the target machine differs from the one the baseline
// was measured on, then walks the candidate spec in pipeline order
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
	// Target is the machine being tuned for; Base the machine the
	// baseline was measured on (zero Name = same as target).
	Target runtime.Config
	Base   runtime.Config
	// Requests is the batch size stream pricing assumes (0 = 1: a single
	// compilation, stream count has no effect).
	Requests int
}

// scaled returns the baseline D, C, K in nanoseconds rescaled from the
// measurement machine to the target: transfers by PCIe bandwidth, compute
// by the roofline-dominant throughput ratio, launches by the machines'
// launch overheads.
func (m *CostModel) scaled() (d, c, k float64) {
	d = float64(m.Baseline.Transfer)
	c = float64(m.Baseline.Compute)
	k = float64(m.Baseline.Launch)
	if m.Base.MIC.Name == "" || m.Base.MIC.Name == m.Target.MIC.Name {
		return d, c, k
	}
	if bw, tw := m.Base.PCIe.BandwidthGBs, m.Target.PCIe.BandwidthGBs; bw > 0 && tw > 0 {
		d *= bw / tw
	}
	// Compute scales by whichever roofline leg dominates: the blended
	// scalar/vector throughput or the irregularity-derated bandwidth.
	bt := m.devThroughput(m.Base)
	tt := m.devThroughput(m.Target)
	bb := m.Base.MIC.EffectiveBandwidth(m.Workload.Irregular)
	tb := m.Target.MIC.EffectiveBandwidth(m.Workload.Irregular)
	ratio := 1.0
	if bt > 0 && tt > 0 {
		ratio = bt / tt
	}
	if bb > 0 && tb > 0 {
		if r := bb / tb; r > ratio {
			ratio = r
		}
	}
	c *= ratio
	if bl, tl := m.Base.MIC.LaunchOverhead, m.Target.MIC.LaunchOverhead; bl > 0 && tl > 0 {
		k *= float64(tl) / float64(bl)
	}
	return d, c, k
}

// devThroughput is the device compute throughput blended by the
// workload's vectorizable fraction.
func (m *CostModel) devThroughput(cfg runtime.Config) float64 {
	threads := cfg.MICThreads
	if threads <= 0 {
		threads = cfg.MIC.MaxThreads()
	}
	base := cfg.MIC.ScalarThroughput(threads)
	vf := m.Workload.Vectorizable
	vec := float64(cfg.MIC.VectorLanes) * cfg.MIC.VectorEff
	return base * (vf*vec + (1-vf)*cfg.MIC.ScalarEff)
}

// Predict returns the modeled makespan of one compilation under c.
func (m *CostModel) Predict(c Config) engine.Duration {
	t, _ := m.predict(c)
	return t
}

// PredictBatch returns the modeled makespan of serving the model's
// Requests under c with c.Streams concurrent device streams. With one
// request (or no stream choice) it reduces to Predict.
func (m *CostModel) PredictBatch(c Config) engine.Duration {
	single, d := m.predict(c)
	r := m.Requests
	if r <= 1 {
		return single
	}
	s := c.Streams
	if s <= 0 {
		s = 1
	}
	// Transfers serialize on the shared PCIe link; compute spreads across
	// stream slices of the device. The batch finishes no sooner than
	// either resource allows, with one leading transfer before the first
	// compute can start.
	transfer := float64(r) * d
	compute := float64(r) * (float64(single) - d) / float64(s)
	t := transfer
	if compute > t {
		t = compute
	}
	return engine.Duration(t + d)
}

// components walks the spec in pipeline order, tracking what has been
// applied, and returns the streamed transfer/compute shares (ds, cs), the
// launch overhead k, the cost that does not depend on the block count
// (rest), the full transfer time d, and whether the spec streams anything.
func (m *CostModel) components(c Config) (ds, cs, k, rest, d float64, streamed bool) {
	var comp float64
	d, comp, k = m.scaled()
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
		return 0, 0, k, d + comp + k*launches + gather, d, false
	}
	ds = d * streamFrac
	cs = comp * streamFrac
	rest = d*(1-streamFrac) + comp*(1-streamFrac) + k*launches*(1-streamFrac)
	return ds, cs, k, rest, d, true
}

// predict returns the modeled makespan of one compilation under c plus
// the transfer time (the batch model needs that component separately).
func (m *CostModel) predict(c Config) (engine.Duration, float64) {
	ds, cs, k, rest, d, streamed := m.components(c)
	if !streamed {
		return engine.Duration(rest), d
	}
	n := c.Blocks
	if n <= 0 {
		n = transform.DefaultBlocks
	}
	t := float64(transform.ModelTime(engine.Duration(ds), engine.Duration(cs), engine.Duration(k), n))
	return engine.Duration(t + rest), d
}

// BestBlocks returns the block count minimizing the predicted cost of c
// over the ladder (c.Blocks is ignored). For non-streaming specs the
// choice is irrelevant and the first rung is returned.
func (m *CostModel) BestBlocks(c Config) int {
	ladder := Ladder()
	best, bestT := ladder[0], engine.Duration(math.MaxInt64)
	for _, n := range ladder {
		c.Blocks = n
		if t := m.PredictBatch(c); t < bestT {
			best, bestT = n, t
		}
	}
	return best
}

// Knee returns the block count past which the predicted cost of c is
// non-decreasing in blocks: the larger of the transfer-bound knee
// (Ds−Cs)/K — where per-block compute stops hiding under transfer — and
// the compute-bound optimum sqrt(Ds/K). Past both, every extra block only
// adds launch overhead. Non-streaming specs have no knee (returns 1:
// predicted cost is constant in blocks).
func (m *CostModel) Knee(c Config) int {
	ds, cs, k, _, _, streamed := m.components(c)
	if !streamed || k <= 0 {
		return 1
	}
	knee := (ds - cs) / k
	if s := math.Sqrt(ds / k); s > knee {
		knee = s
	}
	if knee < 1 {
		return 1
	}
	return int(math.Ceil(knee))
}
