// Package weight implements the paper's Weight Assessment (Algorithm 2):
// given the benign CFG (the oracle) and the CFG inferred from the mixed
// log, it assigns every mixed-log event a benignity weight in [0, 1].
//
// Each program path (edge) of the mixed CFG is scored: 1 when its
// endpoints are already connected in the benign CFG; an interpolated value
// when the path is missing but its start address falls inside the benign
// CFG's address range (the density array) — such paths are likely benign
// functionality that the incomplete benign CFG never observed; and 0 when
// the path lies outside the benign address range altogether, the signature
// of payload code in an appended section or a remote allocation. Path
// scores are averaged onto the events that produced the paths (the
// paper's memap, kept by the inference as one edge set per event).
//
// Assessment works once per distinct edge and once per distinct edge
// set: the benign CFG is traversed once per distinct path source, and an
// event's benignity is its edge set's mean, computed once per set with
// the scores summed in ascending edge order.
//
// Note on orientation: the paper's Algorithm 2 computes "the degree of
// benignity" (1 = on the benign CFG). Its Weighted SVM needs per-sample
// confidence that the *negative* (malicious) label is correct, so the
// classifier layer uses cᵢ = 1 − benignity for mixed samples. The paper
// leaves this inversion implicit; see DESIGN.md.
package weight

import (
	"errors"
	"sort"

	"repro/internal/cfg"
	"repro/internal/telemetry"
)

// Weight-assessment telemetry: how paths were scored, the share of paths
// falling off the benign CFG (the camouflage signal), and the benignity
// distribution pushed onto events.
var (
	mPaths          = telemetry.NewCounterVec("weight_paths_total", "mixed-CFG paths scored, by scoring rule", "kind")
	mPathsConnected = mPaths.With("connected")
	mPathsEstimated = mPaths.With("estimated")
	mPathsOutside   = mPaths.With("outside")
	mOffCFGRatio    = telemetry.NewGauge("weight_offcfg_path_ratio", "share of mixed-CFG paths outside the benign CFG in the last assessment")
	mBenignity      = telemetry.NewHistogram("weight_event_benignity", "per-event benignity weights from the last assessments", telemetry.UnitBuckets())
)

// Config controls weight assessment.
type Config struct {
	// DisableDensityEstimate turns off the density-array interpolation
	// (Algorithm 2 lines 26–30): paths absent from the benign CFG score 0
	// regardless of position. Used by the ablation benchmarks.
	DisableDensityEstimate bool
}

// Result is the output of weight assessment.
type Result struct {
	// PathWeight[id] is the score of the mixed CFG's edge id, its
	// Inference.Edges[id].
	PathWeight []float64
	// eventSet aliases the mixed inference's EventSet, and setBenignity[s]
	// is the benignity of edge set s: the mean of its edges' scores.
	eventSet     []int32
	setBenignity []float64
	// ConnectedPaths, EstimatedPaths and OutsidePaths count edges scored
	// by benign-CFG reachability, density interpolation and out-of-range
	// zeroing respectively.
	ConnectedPaths int
	EstimatedPaths int
	OutsidePaths   int
}

// Assess scores every path of the mixed CFG against the benign CFG and
// averages path scores per event (Algorithm 2).
func Assess(benign *cfg.Graph, mixed *cfg.Inference, cfgOpts Config) (*Result, error) {
	return assess(benign, mixed, nil, cfgOpts)
}

// AssessAligned is Assess for source-level trojans (§VI-A): the mixed
// CFG's addresses are first translated into the benign CFG's coordinate
// system through the alignment, so recompilation shifts do not zero out
// genuinely benign paths. Path scores still attach to the original mixed
// events.
func AssessAligned(benign *cfg.Graph, mixed *cfg.Inference, al *cfg.Alignment, cfgOpts Config) (*Result, error) {
	if al == nil {
		return nil, errors.New("weight: nil alignment")
	}
	return assess(benign, mixed, al, cfgOpts)
}

// assess scores each distinct edge once, traversing the benign CFG once
// per distinct source (the edges come sorted by source), and each edge
// set once: an event's benignity is its set's mean, its edges' scores
// summed in ascending edge order.
func assess(benign *cfg.Graph, mixed *cfg.Inference, al *cfg.Alignment, cfgOpts Config) (*Result, error) {
	if benign == nil {
		return nil, errors.New("weight: nil benign CFG")
	}
	if mixed == nil || mixed.Graph == nil {
		return nil, errors.New("weight: nil mixed inference")
	}
	density := benign.DensityArray()
	reach := benign.Reachability()
	res := &Result{
		PathWeight:   make([]float64, len(mixed.Edges)),
		eventSet:     mixed.EventSet,
		setBenignity: make([]float64, mixed.NumSets()),
	}
	for id, e := range mixed.Edges {
		from, to := e.From, e.To
		if al != nil {
			from, _ = al.Translate(from)
			to, _ = al.Translate(to)
		}
		var w float64
		switch {
		case reach.Reachable(from, to):
			w = 1
			res.ConnectedPaths++
		case !cfgOpts.DisableDensityEstimate && withinRange(from, to, density):
			w = estimate(from, density)
			res.EstimatedPaths++
		default:
			w = 0
			res.OutsidePaths++
		}
		res.PathWeight[id] = w
	}
	events := make([]uint64, len(res.setBenignity))
	for _, s := range res.eventSet {
		if s >= 0 {
			events[s]++
		}
	}
	for s := range res.setBenignity {
		edges := mixed.SetEdges(s)
		var sum float64
		for _, id := range edges {
			sum += res.PathWeight[id]
		}
		res.setBenignity[s] = sum / float64(len(edges))
		mBenignity.ObserveN(res.setBenignity[s], events[s])
	}
	mPathsConnected.Add(uint64(res.ConnectedPaths))
	mPathsEstimated.Add(uint64(res.EstimatedPaths))
	mPathsOutside.Add(uint64(res.OutsidePaths))
	if total := res.ConnectedPaths + res.EstimatedPaths + res.OutsidePaths; total > 0 {
		mOffCFGRatio.Set(float64(res.OutsidePaths) / float64(total))
	}
	return res, nil
}

// withinRange reports whether both endpoints fall inside the density
// array's address span.
func withinRange(from, to uint64, density []uint64) bool {
	if len(density) < 2 {
		return false
	}
	lo, hi := density[0], density[len(density)-1]
	return from >= lo && from <= hi && to >= lo && to <= hi
}

// estimate interpolates the benignity of an unseen path from its start
// address's normalised distance to the nearest benign CFG nodes
// (ESTIMATE_WEIGHT in Algorithm 2): a start adjacent to benign code is
// probably unobserved benign functionality.
func estimate(addr uint64, density []uint64) float64 {
	// First index with density[i] > addr (bisect_right).
	idx := sort.Search(len(density), func(i int) bool { return density[i] > addr })
	if idx == 0 {
		return 0 // below range; callers guard with withinRange
	}
	if idx == len(density) {
		// addr equals the last element (withinRange guarantees <= hi).
		return 1
	}
	left, right := density[idx-1], density[idx]
	gap := right - left
	if gap == 0 {
		return 1
	}
	d1 := addr - left
	d2 := right - addr
	mindiff := d1
	if d2 < mindiff {
		mindiff = d2
	}
	return 1 - float64(mindiff)/float64(gap)
}

// Benignity returns the event's benignity, defaulting to the given value
// for events that contributed no CFG path (e.g. stackless events).
func (r *Result) Benignity(seq int, def float64) float64 {
	if seq >= 0 && seq < len(r.eventSet) {
		if s := r.eventSet[seq]; s >= 0 {
			return r.setBenignity[s]
		}
	}
	return def
}

// MeanBenignity averages benignity over the half-open event range
// [from, to), using def for unscored events. It is how window-level
// weights for coalesced data points are derived.
func (r *Result) MeanBenignity(from, to int, def float64) float64 {
	if to <= from {
		return def
	}
	var sum float64
	for seq := from; seq < to; seq++ {
		sum += r.Benignity(seq, def)
	}
	return sum / float64(to-from)
}
