package cfg

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/trace"
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
// graph, its edges numbered densely, and the edges each event
// contributed, the reverse of the paper's memap (edge → events), which
// weight assessment uses to push path weights back onto events. An
// event's edges depend only on its stack walk and the walk before it,
// so events share a few edge sets, each stored once.
type Inference struct {
	Graph *Graph
	// Edges lists the graph's edges in (From, To) order; an edge's id is
	// its index here.
	Edges []Edge
	// Explicit[id] reports whether edge id was observed at least once as
	// a within-stack function invocation; an edge it does not mark was
	// only ever inferred from adjacent-stack branch points (an implicit
	// path).
	Explicit []bool
	// EventSet[i] is the id of the set of distinct edges event i
	// contributed, or -1 when it contributed none; SetEdges lists a set.
	EventSet []int32
	// Set s holds the ascending edge ids setEdges[setOff[s]:setOff[s+1]].
	setOff, setEdges []int32
	// ExplicitEdges and ImplicitEdges count how many distinct edges came
	// from within-stack function invocations vs. adjacent-stack branch
	// points (an edge seen both ways counts as explicit).
	ExplicitEdges int
	ImplicitEdges int
	// SkippedEvents counts events without application frames (no stack
	// walk), which contribute nothing to the CFG.
	SkippedEvents int
}

// NumSets returns the number of distinct edge sets the events carry.
func (inf *Inference) NumSets() int { return max(0, len(inf.setOff)-1) }

// SetEdges returns the ids of edge set s, ascending. The slice is shared
// storage: read-only.
func (inf *Inference) SetEdges(s int) []int32 {
	return inf.setEdges[inf.setOff[s]:inf.setOff[s+1]:inf.setOff[s+1]]
}

// Events returns the ordinals of the events that contributed edge id,
// ascending: the paper's memap entry for one edge, computed by a pass
// over the events for readers outside the training path.
func (inf *Inference) Events(id int) []int {
	var out []int
	for i, s := range inf.EventSet {
		if s >= 0 {
			if _, ok := slices.BinarySearch(inf.SetEdges(int(s)), int32(id)); ok {
				out = append(out, i)
			}
		}
	}
	return out
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
//
// Explicit paths depend on an event's stack walk alone and implicit ones
// on its walk and the previous event's, so Infer takes each walk's
// explicit edges once, through the log's walk index, and each implicit
// edge once per (previous walk, walk) pair. Event ordinals are indexes:
// a log whose event i has a Seq other than i is refused, since the
// weights assessed on the inference are read back by position.
func Infer(log *partition.Log) (*Inference, error) {
	if log == nil {
		return nil, errors.New("cfg: nil log")
	}
	for i := range log.Events {
		if seq := log.Events[i].Seq; seq != i {
			return nil, fmt.Errorf("cfg: event %d has Seq %d; events must be numbered by their position in the log", i, seq)
		}
	}
	b := inferrer{log: log, ids: make(map[Edge]int32)}

	// Each walk's explicit edges, at its first event, as provisional ids
	// in first-seen order: walk w's are walkEdge[walkOff[w]:walkOff[w+1]].
	nw := log.NumWalks()
	walkOff := make([]int32, nw+1)
	var walkEdge []int32
	for w := range nw {
		app := b.app(w)
		for j := 0; j+1 < len(app); j++ {
			walkEdge = append(walkEdge, b.edge(app[j].Addr, app[j+1].Addr, true))
		}
		walkOff[w+1] = int32(len(walkEdge))
	}

	// Each event's edge set: its walk's explicit edges plus the implicit
	// edge from the previous event's walk, memoised per walk pair.
	inf := &Inference{EventSet: make([]int32, log.Len())}
	type set struct{ walk, implicit int32 }
	var sets []set
	setIDs := make(map[set]int32)
	pairs := make(map[[2]int32]int32) // (previous walk, walk) → set id
	prev := int32(-1)
	for i := range inf.EventSet {
		w := int32(log.WalkOf(i))
		if len(b.app(int(w))) == 0 {
			inf.SkippedEvents++
			inf.EventSet[i] = -1
			continue
		}
		s, ok := pairs[[2]int32{prev, w}]
		if !ok {
			k := set{walk: w, implicit: -1}
			if prev >= 0 {
				k.implicit = b.implicit(b.app(int(prev)), b.app(int(w)))
			}
			if s, ok = setIDs[k]; !ok {
				s = -1
				if k.implicit >= 0 || walkOff[w] < walkOff[w+1] {
					s = int32(len(sets))
					sets = append(sets, k)
				}
				setIDs[k] = s
			}
			pairs[[2]int32{prev, w}] = s
		}
		inf.EventSet[i] = s
		prev = w
	}

	// Number the edges in (From, To) order and build the graph once per
	// distinct edge.
	order := make([]int32, len(b.edges))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int {
		ex, ey := b.edges[x], b.edges[y]
		return cmp.Or(cmp.Compare(ex.From, ey.From), cmp.Compare(ex.To, ey.To))
	})
	rank := make([]int32, len(order))
	inf.Edges = make([]Edge, len(order))
	inf.Explicit = make([]bool, len(order))
	inf.Graph = NewGraph()
	for id, p := range order {
		rank[p] = int32(id)
		e := b.edges[p]
		inf.Edges[id], inf.Explicit[id] = e, b.explicit[p]
		inf.Graph.AddEdge(e.From, e.To)
		if b.explicit[p] {
			inf.ExplicitEdges++
		}
	}
	inf.ImplicitEdges = len(order) - inf.ExplicitEdges

	// Each set's edges as final ids, ascending and distinct: a walk that
	// recurses repeats an edge, and an implicit edge may be explicit in
	// the same walk.
	inf.setOff = make([]int32, 1, len(sets)+1)
	for _, k := range sets {
		at := len(inf.setEdges)
		for _, p := range walkEdge[walkOff[k.walk]:walkOff[k.walk+1]] {
			inf.setEdges = append(inf.setEdges, rank[p])
		}
		if k.implicit >= 0 {
			inf.setEdges = append(inf.setEdges, rank[k.implicit])
		}
		slices.Sort(inf.setEdges[at:])
		inf.setEdges = inf.setEdges[:at+len(slices.Compact(inf.setEdges[at:]))]
		inf.setOff = append(inf.setOff, int32(len(inf.setEdges)))
	}

	mInferRuns.Inc()
	mInferSkipped.Add(uint64(inf.SkippedEvents))
	mInferNodes.Set(float64(inf.Graph.NumNodes()))
	mInferExplicit.Set(float64(inf.ExplicitEdges))
	mInferImplicit.Set(float64(inf.ImplicitEdges))
	return inf, nil
}

// inferrer interns one inference's edges under provisional ids, in
// first-seen order.
type inferrer struct {
	log      *partition.Log
	ids      map[Edge]int32
	edges    []Edge
	explicit []bool
}

// app returns walk w's application stack trace.
func (b *inferrer) app(w int) trace.StackWalk {
	return b.log.Events[b.log.FirstOf(w)].AppTrace
}

// edge returns the provisional id of from→to, interning it on first
// sight, and marks it explicit when this sighting is.
func (b *inferrer) edge(from, to uint64, explicit bool) int32 {
	e := Edge{From: from, To: to}
	id, ok := b.ids[e]
	if !ok {
		id = int32(len(b.edges))
		b.ids[e] = id
		b.edges = append(b.edges, e)
		b.explicit = append(b.explicit, false)
	}
	b.explicit[id] = b.explicit[id] || explicit
	return id
}

// implicit returns the provisional id of the implicit edge from the
// previous stack trace to the current one: the edge at their branch
// point (BRANCH_POINT is the common prefix length), or -1 when one trace
// is a prefix of the other and there is no divergent pair to connect.
func (b *inferrer) implicit(prev, curr trace.StackWalk) int32 {
	n := min(len(prev), len(curr))
	for i := range n {
		if prev[i].Addr != curr[i].Addr {
			return b.edge(prev[i].Addr, curr[i].Addr, false)
		}
	}
	return -1
}
