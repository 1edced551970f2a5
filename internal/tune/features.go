// Package tune is the cost-model-driven configuration search that unifies
// the pass pipeline and the block-count climb. It prices candidate
// configurations — pipeline spec × streaming block count × device-stream
// count — with an analytic cost model fed by the pass manager's memoized
// analysis cache, spends a bounded simulator-probe budget only on the
// top-ranked candidates, and seeds the search from a learned
// nearest-neighbour predictor trained on past decisions so repeat and
// near-miss workloads converge in 0–2 probes.
package tune

import (
	"math"
	"sort"

	"comp/internal/analysis"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/transform"
)

// Features is the workload feature vector: the static facts about a
// program the cost model and the learned predictor condition on. All
// fields are aggregates (counts, fractions, sums).
type Features struct {
	// Loops counts offloaded loops; Iters their total trip count when the
	// bounds are compile-time constants (0 otherwise).
	Loops float64 `json:"loops"`
	Iters float64 `json:"iters"`
	// AccessBytes is the per-iteration traffic summed over offloaded
	// loops' subscripted accesses.
	AccessBytes float64 `json:"access_bytes"`
	// Irregular is the traffic-weighted irregular-access fraction;
	// Vectorizable the fraction of offloaded loops the vectorizer accepts.
	Irregular    float64 `json:"irregular"`
	Vectorizable float64 `json:"vectorizable"`
	// StreamLegal is the fraction of offloaded loops legal to stream as
	// written; RegUnlocks the fraction that would become legal if
	// regularization removed their irregular subscripts first.
	StreamLegal float64 `json:"stream_legal"`
	RegUnlocks  float64 `json:"reg_unlocks"`
	// MergeCands counts host loops with enough inner offloads to merge;
	// MergeInner the offloaded loops living inside those candidates.
	MergeCands float64 `json:"merge_cands"`
	MergeInner float64 `json:"merge_inner"`
	// Reuse is the fraction of read arrays consumed by more than one
	// offloaded loop — cross-loop data reuse merging can exploit.
	Reuse float64 `json:"reuse"`
}

// Extract computes the feature vector for a checked file. It goes through
// pass.NewContext so the per-loop analyses are the memoized ones every
// pipeline pass shares — pricing a candidate pipeline never re-analyzes
// what the passes already looked at.
func Extract(f *minic.File) (Features, error) {
	ctx := pass.NewContext(f)
	var w Features
	readers := map[string]int{}
	consts := constScalars(f)
	loops := transform.FindOffloadLoops(f)
	var totalBytes, irrBytes float64
	for _, loop := range loops {
		info, err := ctx.Analysis(loop)
		if err != nil {
			return Features{}, err
		}
		w.Loops++
		if n, ok := iterCount(info, consts); ok {
			w.Iters += float64(n)
		}
		var perIter float64
		for _, a := range info.Accesses {
			perIter += float64(a.ElemSize())
		}
		w.AccessBytes += perIter
		totalBytes += perIter
		irrBytes += perIter * info.IrregularFraction()
		if info.Vectorizable() {
			w.Vectorizable++
		}
		if info.StreamLegal() {
			w.StreamLegal++
		} else if info.Parallel && info.IrregularFraction() > 0 {
			// The §IV story: the only thing standing between this loop
			// and streaming is its irregular subscripts.
			w.RegUnlocks++
		}
		for name := range info.ArraysRead {
			readers[name]++
		}
	}
	if w.Loops > 0 {
		w.Vectorizable /= w.Loops
		w.StreamLegal /= w.Loops
		w.RegUnlocks /= w.Loops
	}
	if totalBytes > 0 {
		w.Irregular = irrBytes / totalBytes
	}
	var shared, total float64
	for _, n := range readers {
		total++
		if n > 1 {
			shared++
		}
	}
	if total > 0 {
		w.Reuse = shared / total
	}
	for _, outer := range transform.MergeCandidates(f, 2) {
		w.MergeCands++
		w.MergeInner += float64(countInnerOffloads(outer))
	}
	return w, nil
}

func iterCount(info *analysis.LoopInfo, consts map[string]int64) (int64, bool) {
	lo, lok := resolveConst(info.Lower, consts)
	hi, hok := resolveConst(info.Upper, consts)
	if !lok || !hok || info.Step <= 0 || hi <= lo {
		return 0, false
	}
	return (hi - lo + info.Step - 1) / info.Step, true
}

// resolveConst evaluates e, falling back to the single-assignment constant
// scalars of the file (the ubiquitous `int n = 4096; ... i < n` bound).
func resolveConst(e minic.Expr, consts map[string]int64) (int64, bool) {
	if v, ok := analysis.ConstInt(e); ok {
		return v, true
	}
	if id, ok := e.(*minic.Ident); ok {
		v, ok := consts[id.Name]
		return v, ok
	}
	return 0, false
}

// constScalars collects scalar variables declared exactly once with a
// constant initializer and never reassigned anywhere in the file.
func constScalars(f *minic.File) map[string]int64 {
	vals := map[string]int64{}
	declared := map[string]int{}
	reassigned := map[string]bool{}
	record := func(d *minic.VarDecl) {
		declared[d.Name]++
		if d.Init != nil {
			if v, ok := analysis.ConstInt(d.Init); ok {
				vals[d.Name] = v
			}
		}
	}
	minic.Inspect(f, func(n minic.Node) bool {
		switch x := n.(type) {
		case *minic.DeclStmt:
			record(x.Decl)
		case *minic.AssignStmt:
			if id, ok := x.LHS.(*minic.Ident); ok {
				reassigned[id.Name] = true
			}
		case *minic.IncDecStmt:
			if id, ok := x.X.(*minic.Ident); ok {
				reassigned[id.Name] = true
			}
		}
		return true
	})
	for _, d := range f.Decls {
		if vd, ok := d.(*minic.VarDecl); ok {
			record(vd)
		}
	}
	for name := range vals {
		if declared[name] != 1 || reassigned[name] {
			delete(vals, name)
		}
	}
	return vals
}

func countInnerOffloads(outer *minic.ForStmt) int {
	n := 0
	minic.Inspect(outer.Body, func(node minic.Node) bool {
		fs, ok := node.(*minic.ForStmt)
		if !ok {
			return true
		}
		if transform.OffloadPragma(fs) != nil {
			n++
			return false
		}
		return true
	})
	return n
}

// Platform is the machine-side feature vector: what the predictor needs to
// transfer experience across machine configurations (the held-out-machine
// case), and what the cost model scales baselines by.
type Platform struct {
	DevName      string  `json:"dev_name"`
	DevCores     float64 `json:"dev_cores"`
	DevClockGHz  float64 `json:"dev_clock_ghz"`
	DevLanes     float64 `json:"dev_lanes"`
	DevVecEff    float64 `json:"dev_vec_eff"`
	DevScalarEff float64 `json:"dev_scalar_eff"`
	DevMemGBs    float64 `json:"dev_mem_gbs"`
	HostCores    float64 `json:"host_cores"`
	HostClockGHz float64 `json:"host_clock_ghz"`
	PCIeGBs      float64 `json:"pcie_gbs"`
	LaunchNs     float64 `json:"launch_ns"`
}

// PlatformOf derives the platform features from a runtime configuration.
func PlatformOf(cfg runtime.Config) Platform {
	return Platform{
		DevName:      cfg.MIC.Name,
		DevCores:     float64(cfg.MIC.Cores),
		DevClockGHz:  cfg.MIC.ClockGHz,
		DevLanes:     float64(cfg.MIC.VectorLanes),
		DevVecEff:    cfg.MIC.VectorEff,
		DevScalarEff: cfg.MIC.ScalarEff,
		DevMemGBs:    cfg.MIC.MemBandwidthGBs,
		HostCores:    float64(cfg.CPU.Cores),
		HostClockGHz: cfg.CPU.ClockGHz,
		PCIeGBs:      cfg.PCIe.BandwidthGBs,
		LaunchNs:     float64(cfg.MIC.LaunchOverhead),
	}
}

// vector flattens the numeric feature dimensions (names excluded) for
// distance computation. Order is fixed and shared by every sample.
func (w Features) vector() []float64 {
	return []float64{
		w.Loops, w.Iters, w.AccessBytes, w.Irregular, w.Vectorizable,
		w.StreamLegal, w.RegUnlocks, w.MergeCands, w.MergeInner, w.Reuse,
	}
}

func (p Platform) vector() []float64 {
	return []float64{
		p.DevCores, p.DevClockGHz, p.DevLanes, p.DevVecEff, p.DevScalarEff,
		p.DevMemGBs, p.HostCores, p.HostClockGHz, p.PCIeGBs, p.LaunchNs,
	}
}

// Distance is the scale-free distance between two feature points: each
// dimension contributes |a−b|/(|a|+|b|+1) ∈ [0,1), aggregated as the
// root-mean-square. It needs no dataset-wide normalization, so adding
// samples to a model never changes the distance between two fixed points
// (the golden model file stays stable).
func Distance(aw Features, ap Platform, bw Features, bp Platform) float64 {
	av := append(aw.vector(), ap.vector()...)
	bv := append(bw.vector(), bp.vector()...)
	var sum float64
	for i := range av {
		d := math.Abs(av[i] - bv[i])
		den := math.Abs(av[i]) + math.Abs(bv[i]) + 1
		sum += (d / den) * (d / den)
	}
	return math.Sqrt(sum / float64(len(av)))
}

// sortConfigs orders configurations deterministically (spec, streams,
// blocks) for stable candidate enumeration.
func sortConfigs(cs []Config) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Spec != cs[j].Spec {
			return cs[i].Spec < cs[j].Spec
		}
		if cs[i].Streams != cs[j].Streams {
			return cs[i].Streams < cs[j].Streams
		}
		return cs[i].Blocks < cs[j].Blocks
	})
}
