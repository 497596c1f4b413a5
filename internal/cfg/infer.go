package cfg

import (
	"errors"

	"repro/internal/partition"
	"repro/internal/telemetry"
)

// CFG telemetry: size of the last inferred graph and how much of the log
// could not contribute (stackless events carry no application frames).
var (
	mInferRuns     = telemetry.NewCounter("cfg_infer_runs_total", "CFG inference runs")
	mInferSkipped  = telemetry.NewCounter("cfg_skipped_events_total", "events without application frames, skipped by CFG inference")
	mInferNodes    = telemetry.NewGauge("cfg_nodes", "nodes in the last inferred CFG")
	mInferExplicit = telemetry.NewGauge("cfg_explicit_edges", "explicit (within-stack) edges in the last inferred CFG")
	mInferImplicit = telemetry.NewGauge("cfg_implicit_edges", "implicit (branch-point) edges in the last inferred CFG")
)

// Inference is the output of CFG inference over one partitioned log: the
// graph plus the reverse mapping from each inferred edge to the events
// whose stack traces produced it (the paper's memap), which the weight
// assessment uses to push path weights back onto events.
type Inference struct {
	Graph *Graph
	// EventsByEdge maps each edge to the ordinals (Seq) of the events
	// that contributed it, in first-contribution order without
	// duplicates.
	EventsByEdge map[Edge][]int
	// Explicit marks edges observed at least once as within-stack
	// function invocations; edges absent from this set were only ever
	// inferred from adjacent-stack branch points (implicit paths).
	Explicit map[Edge]bool
	// ExplicitEdges and ImplicitEdges count how many distinct edges came
	// from within-stack function invocations vs. adjacent-stack branch
	// points (an edge seen both ways counts as explicit).
	ExplicitEdges int
	ImplicitEdges int
	// SkippedEvents counts events without application frames (no stack
	// walk), which contribute nothing to the CFG.
	SkippedEvents int
}

// Infer derives the application CFG from the application stack traces of
// the log, implementing Algorithm 1 of the paper:
//
//   - explicit paths: for each event, an edge between every pair of
//     adjacent frames of its application stack trace (the function
//     invocations that led to the event);
//   - implicit paths: for each pair of adjacent events, an edge between
//     the frames at the first index where their stack traces diverge,
//     capturing control flow between the two stacks' branch point.
func Infer(log *partition.Log) (*Inference, error) {
	if log == nil {
		return nil, errors.New("cfg: nil log")
	}
	inf := &Inference{
		Graph:        NewGraph(),
		EventsByEdge: make(map[Edge][]int),
		Explicit:     make(map[Edge]bool),
	}
	addEdge := func(from, to uint64, seq int, implicit bool) {
		e := Edge{From: from, To: to}
		if !inf.Graph.HasEdge(from, to) {
			if implicit {
				inf.ImplicitEdges++
			} else {
				inf.ExplicitEdges++
			}
		} else if !implicit && !inf.Explicit[e] {
			// Promoted from implicit-only to explicit.
			inf.ImplicitEdges--
			inf.ExplicitEdges++
		}
		if !implicit {
			inf.Explicit[e] = true
		}
		inf.Graph.AddEdge(from, to)
		evs := inf.EventsByEdge[e]
		if len(evs) == 0 || evs[len(evs)-1] != seq {
			inf.EventsByEdge[e] = append(evs, seq)
		}
	}

	// An event's frame addresses depend on its stack walk alone: take
	// them once per walk, at its first event, and share them after.
	addrs := make([][]uint64, log.NumWalks())
	var prev []uint64
	for i := range log.Events {
		e := &log.Events[i]
		w := log.WalkOf(i)
		if log.FirstOf(w) == i {
			addrs[w] = e.AppTrace.Addrs()
		}
		curr := addrs[w]
		if len(curr) == 0 {
			inf.SkippedEvents++
			continue
		}
		// Implicit path: edge at the branch point between the previous
		// and current stack traces (BRANCH_POINT is the common prefix
		// length). When one trace is a prefix of the other there is no
		// divergent pair to connect.
		if prev != nil {
			idx := commonPrefixLen(prev, curr)
			if idx < len(prev) && idx < len(curr) {
				addEdge(prev[idx], curr[idx], e.Seq, true)
			}
		}
		// Explicit paths: the function invocations within this stack.
		for j := 0; j+1 < len(curr); j++ {
			addEdge(curr[j], curr[j+1], e.Seq, false)
		}
		prev = curr
	}
	mInferRuns.Inc()
	mInferSkipped.Add(uint64(inf.SkippedEvents))
	mInferNodes.Set(float64(inf.Graph.NumNodes()))
	mInferExplicit.Set(float64(inf.ExplicitEdges))
	mInferImplicit.Set(float64(inf.ImplicitEdges))
	return inf, nil
}

// commonPrefixLen returns the length of the longest common prefix of a
// and b.
func commonPrefixLen(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
