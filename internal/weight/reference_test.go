package weight

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/trace"
)

// refInference is the map-based CFG inference that visits every edge of
// every event, kept as the reference that Infer and Assess are held to:
// EventsByEdge maps each edge to the ordinals (Seq) of the events that
// contributed it, in first-contribution order without duplicates, and
// Explicit marks the edges observed as within-stack invocations.
type refInference struct {
	Graph                                       *cfg.Graph
	EventsByEdge                                map[cfg.Edge][]int
	Explicit                                    map[cfg.Edge]bool
	ExplicitEdges, ImplicitEdges, SkippedEvents int
}

// refInfer is Algorithm 1 event by event: an explicit edge between the
// adjacent frames of each event's application stack trace, and an
// implicit edge at the branch point of each pair of adjacent traces.
func refInfer(log *partition.Log) *refInference {
	inf := &refInference{
		Graph:        cfg.NewGraph(),
		EventsByEdge: make(map[cfg.Edge][]int),
		Explicit:     make(map[cfg.Edge]bool),
	}
	addEdge := func(from, to uint64, seq int, implicit bool) {
		e := cfg.Edge{From: from, To: to}
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
	var prev []uint64
	for i := range log.Events {
		e := &log.Events[i]
		curr := e.AppTrace.Addrs()
		if len(curr) == 0 {
			inf.SkippedEvents++
			continue
		}
		if prev != nil {
			idx := 0
			for idx < len(prev) && idx < len(curr) && prev[idx] == curr[idx] {
				idx++
			}
			if idx < len(prev) && idx < len(curr) {
				addEdge(prev[idx], curr[idx], e.Seq, true)
			}
		}
		for j := 0; j+1 < len(curr); j++ {
			addEdge(curr[j], curr[j+1], e.Seq, false)
		}
		prev = curr
	}
	return inf
}

// refResult is the reference assessment: every edge's score and every
// scored event's benignity, keyed by edge and by Seq.
type refResult struct {
	EventBenignity                               map[int]float64
	PathWeight                                   map[cfg.Edge]float64
	ConnectedPaths, EstimatedPaths, OutsidePaths int
}

// refAssess is Algorithm 2 edge by edge over a reference inference: each
// edge of the mixed CFG, in (From, To) order, is scored and its score
// added to the running sum of every event that contributed it.
func refAssess(benign *cfg.Graph, mixed *refInference, al *cfg.Alignment, opts Config) *refResult {
	density := benign.DensityArray()
	res := &refResult{EventBenignity: make(map[int]float64), PathWeight: make(map[cfg.Edge]float64)}
	sums := make(map[int]float64)
	counts := make(map[int]int)
	for _, e := range mixed.Graph.Edges() {
		from, to := e.From, e.To
		if al != nil {
			from, _ = al.Translate(from)
			to, _ = al.Translate(to)
		}
		var w float64
		switch {
		case refReachable(benign, from, to):
			w = 1
			res.ConnectedPaths++
		case !opts.DisableDensityEstimate && withinRange(from, to, density):
			w = estimate(from, density)
			res.EstimatedPaths++
		default:
			res.OutsidePaths++
		}
		res.PathWeight[e] = w
		for _, seq := range mixed.EventsByEdge[e] {
			sums[seq] += w
			counts[seq]++
		}
	}
	for seq, s := range sums {
		res.EventBenignity[seq] = s / float64(counts[seq])
	}
	return res
}

// refReachable is CHECK_CFG by a depth-first search from start's
// successors, with a visited set of its own.
func refReachable(g *cfg.Graph, start, end uint64) bool {
	visited := make(map[uint64]bool)
	stack := g.Successors(start)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == end {
			return true
		}
		if visited[cur] {
			continue
		}
		visited[cur] = true
		stack = append(stack, g.Successors(cur)...)
	}
	return false
}

// refMean is MeanBenignity over the reference's map.
func (r *refResult) mean(from, to int, def float64) float64 {
	if to <= from {
		return def
	}
	var sum float64
	for seq := from; seq < to; seq++ {
		w, ok := r.EventBenignity[seq]
		if !ok {
			w = def
		}
		sum += w
	}
	return sum / float64(to-from)
}

// matchReference infers mixed's CFG and assesses it against benign's,
// with the alignment when align is set, and reports the first way the
// result differs from the reference's, bit for bit: the edges, the
// explicit set, the edge counts, the skipped events, each edge's event
// list, the path scores and counts, every event's benignity and the mean
// benignity of every window of each length in windows.
func matchReference(t *testing.T, benignLog, mixedLog *partition.Log, opts Config, align bool, windows ...int) {
	t.Helper()
	benignInf, err := cfg.Infer(benignLog)
	if err != nil {
		t.Fatal(err)
	}
	benign := benignInf.Graph
	if want := refInfer(benignLog).Graph; !slices.Equal(benign.Edges(), want.Edges()) || benign.NumNodes() != want.NumNodes() {
		t.Fatalf("benign graph: %v, reference %v", benign.Edges(), want.Edges())
	}
	got, err := cfg.Infer(mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	want := refInfer(mixedLog)
	if !slices.Equal(got.Edges, want.Graph.Edges()) || !slices.Equal(got.Graph.Edges(), got.Edges) || got.Graph.NumNodes() != want.Graph.NumNodes() {
		t.Fatalf("edges %v, graph %v; reference %v", got.Edges, got.Graph.Edges(), want.Graph.Edges())
	}
	if got.ExplicitEdges != want.ExplicitEdges || got.ImplicitEdges != want.ImplicitEdges || got.SkippedEvents != want.SkippedEvents {
		t.Fatalf("explicit %d, implicit %d, skipped %d; reference %d, %d, %d",
			got.ExplicitEdges, got.ImplicitEdges, got.SkippedEvents, want.ExplicitEdges, want.ImplicitEdges, want.SkippedEvents)
	}
	for id, e := range got.Edges {
		if got.Explicit[id] != want.Explicit[e] {
			t.Fatalf("edge %v: explicit %v, reference %v", e, got.Explicit[id], want.Explicit[e])
		}
		if evs := got.Events(id); !slices.Equal(evs, want.EventsByEdge[e]) {
			t.Fatalf("edge %v: events %v, reference %v", e, evs, want.EventsByEdge[e])
		}
	}

	var al *cfg.Alignment
	var res *Result
	if align {
		al = cfg.AlignGraphs(benign, got.Graph)
		res, err = AssessAligned(benign, got, al, opts)
	} else {
		res, err = Assess(benign, got, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := refAssess(benign, want, al, opts)
	if res.ConnectedPaths != ref.ConnectedPaths || res.EstimatedPaths != ref.EstimatedPaths || res.OutsidePaths != ref.OutsidePaths {
		t.Fatalf("paths connected %d, estimated %d, outside %d; reference %d, %d, %d",
			res.ConnectedPaths, res.EstimatedPaths, res.OutsidePaths, ref.ConnectedPaths, ref.EstimatedPaths, ref.OutsidePaths)
	}
	for id, e := range got.Edges {
		if w, rw := res.PathWeight[id], ref.PathWeight[e]; math.Float64bits(w) != math.Float64bits(rw) {
			t.Fatalf("edge %v: weight %v, reference %v", e, w, rw)
		}
	}
	n := mixedLog.Len()
	for seq := -1; seq <= n; seq++ {
		rb, ok := ref.EventBenignity[seq]
		if !ok {
			rb = -1
		}
		if b := res.Benignity(seq, -1); math.Float64bits(b) != math.Float64bits(rb) {
			t.Fatalf("event %d: benignity %v, reference %v", seq, b, rb)
		}
	}
	for _, win := range windows {
		for from := 0; from < n; from++ {
			to := from + win
			if m, rm := res.MeanBenignity(from, to, 0.5), ref.mean(from, to, 0.5); math.Float64bits(m) != math.Float64bits(rm) {
				t.Fatalf("window [%d,%d): mean benignity %v, reference %v", from, to, m, rm)
			}
		}
	}
}

// TestInferAssessMatchesReference holds Infer and Assess to the
// event-by-event reference on the benign and mixed logs of every Table I
// dataset, split through the walk index and event by event, and with the
// mixed CFG aligned.
func TestInferAssessMatchesReference(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, spec := range dataset.Table1Specs() {
		spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 3000, 3000, 100
		for _, seed := range seeds {
			logs, err := spec.Generate(seed)
			if err != nil {
				t.Fatal(err)
			}
			benign, mixed := split(t, logs.Benign), split(t, logs.Mixed)
			if mixed.NumWalks() >= mixed.Len()/10 {
				t.Fatalf("%s seed %d: %d walks for %d events; the walk index would barely be exercised",
					spec.Name, seed, mixed.NumWalks(), mixed.Len())
			}
			t.Run(spec.Name, func(t *testing.T) {
				matchReference(t, benign, mixed, Config{}, false, 10)
				matchReference(t, benign, mixed, Config{}, true, 10)
				unindexed := *mixed
				unindexed.Walk, unindexed.First = nil, nil
				matchReference(t, benign, &unindexed, Config{DisableDensityEstimate: true}, false, 10)
			})
		}
	}
}

func split(t *testing.T, log *trace.Log) *partition.Log {
	t.Helper()
	part, err := partition.Split(log)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// FuzzInferAssess holds Infer and Assess to the event-by-event reference
// on partitioned logs and benign graphs drawn from the input (see
// fuzzCase), bit for bit.
func FuzzInferAssess(f *testing.F) {
	for _, c := range fuzzSeeds() {
		f.Add(c.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCase(data)
		matchReference(t, c.benign, c.mixed(), Config{DisableDensityEstimate: c.flags&fuzzNoDensity != 0},
			c.flags&fuzzAlign != 0, 1, c.window)
	})
}

// Flags of a fuzz case.
const (
	fuzzIndexed   = 1 << iota // the mixed log carries a walk index
	fuzzNoDensity             // assess without the density estimate
	fuzzAlign                 // assess through the alignment
)

// fuzzCase is one FuzzInferAssess input: a mixed log of events drawn
// from a few stack walks over a small address space, so that walks
// repeat, share prefixes, recurse and collide with the benign graph's
// edges; the benign CFG's log, one event per benign edge; and a window
// length.
type fuzzCase struct {
	flags  byte
	window int
	walks  [][]byte // application frames, as address codes
	events []byte   // each event's walk
	benign *partition.Log
	edges  [][2]byte // benign edges, as address codes
}

// addr maps an address code onto a code address; codes spread over a
// range wide enough for the density estimate's gaps to differ.
func addr(code byte) uint64 { return 0x1000 + uint64(code)*uint64(code)*8 }

// encode lays the case out as decodeFuzzCase reads it: flags, window,
// the walk count and each walk's length and codes, the benign edge count
// and edges, then one byte per event.
func (c fuzzCase) encode() []byte {
	out := []byte{c.flags, byte(c.window - 1), byte(len(c.walks) - 1)}
	for _, w := range c.walks {
		out = append(append(out, byte(len(w))), w...)
	}
	out = append(out, byte(len(c.edges)))
	for _, e := range c.edges {
		out = append(out, e[0], e[1])
	}
	return append(out, c.events...)
}

// decodeFuzzCase reads any input as a case, reading zeros past its end:
// at most 8 walks of at most 7 frames over 32 codes, 31 benign edges and
// 512 events.
func decodeFuzzCase(data []byte) fuzzCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	c := fuzzCase{flags: next(), window: 1 + int(next()%16)}
	c.walks = make([][]byte, 1+next()%8)
	for i := range c.walks {
		c.walks[i] = make([]byte, next()%8)
		for j := range c.walks[i] {
			c.walks[i][j] = next() % 32
		}
	}
	c.edges = make([][2]byte, next()%32)
	for i := range c.edges {
		c.edges[i] = [2]byte{next() % 32, next() % 32}
	}
	c.events = data[:min(len(data), 512)]
	c.benign = &partition.Log{}
	for i, e := range c.edges {
		c.benign.Events = append(c.benign.Events, frames(i, e[:]))
	}
	return c
}

// frames returns event seq with the application frames of codes.
func frames(seq int, codes []byte) partition.Event {
	e := partition.Event{Seq: seq, Type: trace.EventFileRead}
	for _, code := range codes {
		e.AppTrace = append(e.AppTrace, trace.Frame{Addr: addr(code)})
	}
	return e
}

// mixed builds the case's mixed log. Events of one walk share its trace,
// as Split's do; with fuzzIndexed the log records the walk index Split
// would, numbering walks in first-occurrence order.
func (c fuzzCase) mixed() *partition.Log {
	traces := make([]partition.Event, len(c.walks))
	for i, w := range c.walks {
		traces[i] = frames(0, w)
	}
	log := &partition.Log{}
	ids := make([]int32, len(c.walks)) // 1 + the walk's id; 0 until seen
	for i, b := range c.events {
		w := int(b) % len(c.walks)
		e := traces[w]
		e.Seq = i
		log.Events = append(log.Events, e)
		if ids[w] == 0 {
			log.First = append(log.First, int32(i))
			ids[w] = int32(len(log.First))
		}
		log.Walk = append(log.Walk, ids[w]-1)
	}
	if c.flags&fuzzIndexed == 0 {
		log.Walk, log.First = nil, nil
	}
	return log
}

// fuzzSeeds are the corpus: each covers a shape the dense tables must
// get right.
func fuzzSeeds() []fuzzCase {
	benign := [][2]byte{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {6, 7}, {20, 21}}
	return []fuzzCase{
		// Repeated walks, with prefix stacks ([1 2 3] and [1 2]) and a
		// benign graph with a cycle (1→2→3→1).
		{flags: fuzzIndexed, window: 10, walks: [][]byte{{1, 2, 3}, {1, 2}, {1, 5, 6}}, edges: benign,
			events: []byte{0, 1, 0, 2, 2, 0, 1, 1, 2, 0, 0, 1, 2, 0, 1, 2, 2, 2, 0}},
		// A walk that repeats one edge (recursion 5→7→5→7), whose implicit
		// edge from [5 7] is (5,7), one of its own explicit edges.
		{flags: fuzzIndexed, window: 3, walks: [][]byte{{5, 7}, {7, 5, 7, 5, 7}, {5, 7, 6}}, edges: benign,
			events: []byte{0, 1, 0, 1, 1, 2, 1, 0, 2, 1}},
		// One-frame and stackless walks between deeper ones.
		{flags: fuzzIndexed, window: 4, walks: [][]byte{{9}, {}, {1, 2, 3, 4}, {4}, {1, 2, 20}}, edges: benign,
			events: []byte{1, 0, 1, 2, 3, 1, 3, 0, 4, 1, 1, 2, 4, 0}},
		// The same events without a walk index, with the alignment and
		// without the density estimate.
		{flags: fuzzAlign | fuzzNoDensity, window: 7, walks: [][]byte{{1, 2, 3}, {5, 7}, {7, 5, 7}, {}, {9}}, edges: benign,
			events: []byte{0, 1, 2, 1, 2, 3, 4, 0, 4, 1, 2, 2, 0}},
		{flags: fuzzIndexed | fuzzAlign, window: 2, walks: [][]byte{{20, 21, 22}, {20, 23}, {1, 2}, {1, 3}},
			edges: benign, events: []byte{0, 1, 0, 2, 3, 2, 1, 3, 0}},
	}
}
