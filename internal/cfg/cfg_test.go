package cfg

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/appsim"
	"repro/internal/partition"
	"repro/internal/trace"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("new graph not empty")
	}
	g.AddEdge(1, 2)
	g.AddEdge(1, 2) // duplicate
	g.AddEdge(2, 3)
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Error("HasEdge wrong")
	}
	if !g.HasNode(3) || g.HasNode(4) {
		t.Error("HasNode wrong")
	}
	if got := g.Nodes(); !reflect.DeepEqual(got, []uint64{1, 2, 3}) {
		t.Errorf("Nodes = %v", got)
	}
	if got := g.Successors(1); !reflect.DeepEqual(got, []uint64{2}) {
		t.Errorf("Successors(1) = %v", got)
	}
	if got := g.Successors(99); len(got) != 0 {
		t.Errorf("Successors(99) = %v, want empty", got)
	}
	edges := g.Edges()
	if !reflect.DeepEqual(edges, []Edge{{1, 2}, {2, 3}}) {
		t.Errorf("Edges = %v", edges)
	}
}

func TestReachable(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(5, 6)
	tests := []struct {
		from, to uint64
		want     bool
	}{
		{1, 2, true},
		{1, 4, true},  // transitive
		{4, 1, false}, // wrong direction
		{1, 6, false}, // different component
		{1, 1, false}, // needs a cycle
		{99, 1, false},
		{1, 99, false},
	}
	r := g.Reachability()
	for _, tt := range tests {
		if got := r.Reachable(tt.from, tt.to); got != tt.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestReachableCycleSafe(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // cycle
	g.AddEdge(2, 3)
	r := g.Reachability()
	if !r.Reachable(1, 1) {
		t.Error("Reachable(1,1) via cycle = false")
	}
	if !r.Reachable(1, 3) {
		t.Error("Reachable(1,3) = false")
	}
	if r.Reachable(3, 1) {
		t.Error("Reachable(3,1) = true")
	}
}

// TestReachabilityIsASnapshot requires the index to answer for the graph
// it was built from.
func TestReachabilityIsASnapshot(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2)
	r := g.Reachability()
	g.AddEdge(2, 3)
	if r.Reachable(1, 3) {
		t.Error("Reachable(1,3) sees an edge added after the index was built")
	}
	if !g.Reachability().Reachable(1, 3) {
		t.Error("a fresh index misses Reachable(1,3)")
	}
}

// Property: Reachable agrees with a reference BFS on random graphs, for
// queries grouped by start and for starts that change on every query.
func TestReachablePropertyQuick(t *testing.T) {
	ref := func(g *Graph, start, end uint64) bool {
		seen := map[uint64]bool{}
		queue := g.Successors(start)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur == end {
				return true
			}
			if seen[cur] {
				continue
			}
			seen[cur] = true
			queue = append(queue, g.Successors(cur)...)
		}
		return false
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		n := 2 + rng.Intn(12)
		for e := 0; e < rng.Intn(30); e++ {
			g.AddEdge(uint64(rng.Intn(n)), uint64(rng.Intn(n)))
		}
		r := g.Reachability()
		for trial := 0; trial < 20; trial++ {
			a := uint64(rng.Intn(n + 1)) // n is never a node
			for range 1 + rng.Intn(3) {
				b := uint64(rng.Intn(n + 1))
				if r.Reachable(a, b) != ref(g, a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(3, 2) // same component via shared node
	g.AddEdge(10, 11)
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if !reflect.DeepEqual(comps[0], []uint64{1, 2, 3}) {
		t.Errorf("largest component = %v, want [1 2 3]", comps[0])
	}
	if !reflect.DeepEqual(comps[1], []uint64{10, 11}) {
		t.Errorf("second component = %v, want [10 11]", comps[1])
	}
}

func TestDensityArraySortedDistinct(t *testing.T) {
	g := NewGraph()
	g.AddEdge(5, 1)
	g.AddEdge(1, 5)
	g.AddEdge(5, 9)
	da := g.DensityArray()
	if !reflect.DeepEqual(da, []uint64{1, 5, 9}) {
		t.Errorf("DensityArray = %v, want [1 5 9]", da)
	}
}

func TestDOT(t *testing.T) {
	g := NewGraph()
	g.AddEdge(0x10, 0x20)
	dot := g.DOT("test", nil)
	if !strings.Contains(dot, `"0x10" -> "0x20"`) {
		t.Errorf("DOT missing edge:\n%s", dot)
	}
	named := g.DOT("test", func(a uint64) string {
		if a == 0x10 {
			return "main"
		}
		return ""
	})
	if !strings.Contains(named, `"main" -> "0x20"`) {
		t.Errorf("DOT resolve not applied:\n%s", named)
	}
}

func TestDiffGraphs(t *testing.T) {
	a := NewGraph()
	a.AddEdge(1, 2)
	a.AddEdge(2, 3)
	b := NewGraph()
	b.AddEdge(1, 2)
	b.AddEdge(7, 8)
	d := DiffGraphs(a, b)
	if !reflect.DeepEqual(d.Common, []Edge{{1, 2}}) {
		t.Errorf("Common = %v", d.Common)
	}
	if !reflect.DeepEqual(d.OnlyA, []Edge{{2, 3}}) {
		t.Errorf("OnlyA = %v", d.OnlyA)
	}
	if !reflect.DeepEqual(d.OnlyB, []Edge{{7, 8}}) {
		t.Errorf("OnlyB = %v", d.OnlyB)
	}
}

// partEvent builds a partitioned event with the given app-stack addresses.
func partEvent(seq int, addrs ...uint64) partition.Event {
	e := partition.Event{Seq: seq, Type: trace.EventFileRead}
	for _, a := range addrs {
		e.AppTrace = append(e.AppTrace, trace.Frame{Addr: a})
	}
	return e
}

// TestInferPaperFigure3 reproduces the paper's Figure 3: Event 1 walks
// Addr_1..Addr_5; Event 2 diverges after Addr_3, invoking Addr_6, Addr_7.
// The implicit edge is Addr_4 -> Addr_6.
func TestInferPaperFigure3(t *testing.T) {
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 1, 2, 3, 4, 5),
		partEvent(1, 1, 2, 3, 6, 7),
	}}
	inf, err := Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	g := inf.Graph
	wantExplicit := []Edge{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 6}, {6, 7}}
	for _, e := range wantExplicit {
		if !g.HasEdge(e.From, e.To) {
			t.Errorf("missing explicit edge %v", e)
		}
	}
	if !g.HasEdge(4, 6) {
		t.Error("missing implicit edge 4 -> 6")
	}
	if g.NumEdges() != len(wantExplicit)+1 {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), len(wantExplicit)+1)
	}
	if inf.ExplicitEdges != len(wantExplicit) || inf.ImplicitEdges != 1 {
		t.Errorf("edge counts = (%d explicit, %d implicit), want (%d, 1)",
			inf.ExplicitEdges, inf.ImplicitEdges, len(wantExplicit))
	}
}

// events returns the ordinals of the events that contributed e.
func events(inf *Inference, e Edge) []int {
	return inf.Events(slices.Index(inf.Edges, e))
}

func TestInferEventsByEdge(t *testing.T) {
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 1, 2),
		partEvent(1, 1, 3),
		partEvent(2, 1, 2),
	}}
	inf, err := Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{1, 2}, {1, 3}, {2, 3}, {3, 2}}; !reflect.DeepEqual(inf.Edges, want) {
		t.Errorf("Edges = %v, want %v", inf.Edges, want)
	}
	if want := []bool{true, true, false, false}; !reflect.DeepEqual(inf.Explicit, want) {
		t.Errorf("Explicit = %v, want %v", inf.Explicit, want)
	}
	// Edge (1,2) contributed by events 0 and 2.
	if got := events(inf, Edge{1, 2}); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Errorf("events of 1->2 = %v, want [0 2]", got)
	}
	// Implicit edge (2,3) attributed to event 1.
	if got := events(inf, Edge{2, 3}); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("events of 2->3 = %v, want [1]", got)
	}
	// Implicit edge (3,2) attributed to event 2.
	if got := events(inf, Edge{3, 2}); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("events of 3->2 = %v, want [2]", got)
	}
}

// TestInferSharesEdgeSets requires events with the same walk after the
// same walk to share one edge set, each set to list its distinct edges
// ascending, and an event without an edge to carry none.
func TestInferSharesEdgeSets(t *testing.T) {
	// Walk [5 7] recurses into [7 5 7]; its implicit edge from [5 7] is
	// (5,7), one of its own explicit edges.
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 9),
		partEvent(1, 5, 7),
		partEvent(2, 7, 5, 7),
		partEvent(3, 5, 7),
		partEvent(4, 7, 5, 7),
		partEvent(5),
		partEvent(6, 7, 5, 7),
	}}
	log.Walk, log.First = []int32{0, 1, 2, 1, 2, 3, 2}, []int32{0, 1, 2, 5}
	inf, err := Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{5, 7}, {7, 5}, {9, 5}}; !reflect.DeepEqual(inf.Edges, want) {
		t.Fatalf("Edges = %v, want %v", inf.Edges, want)
	}
	if want := []int32{-1, 0, 1, 2, 1, -1, 3}; !reflect.DeepEqual(inf.EventSet, want) {
		t.Errorf("EventSet = %v, want %v", inf.EventSet, want)
	}
	for s, want := range [][]int32{{0, 2}, {0, 1}, {0, 1}, {0, 1}} {
		if got := inf.SetEdges(s); !slices.Equal(got, want) {
			t.Errorf("SetEdges(%d) = %v, want %v", s, got, want)
		}
	}
	if inf.NumSets() != 4 || inf.ExplicitEdges != 2 || inf.ImplicitEdges != 1 || inf.SkippedEvents != 1 {
		t.Errorf("sets %d, explicit %d, implicit %d, skipped %d; want 4, 2, 1, 1",
			inf.NumSets(), inf.ExplicitEdges, inf.ImplicitEdges, inf.SkippedEvents)
	}
}

// TestInferRefusesMisnumberedEvents requires Infer to refuse a log whose
// Seq disagrees with an event's position, naming the first such event:
// weights are read back by position.
func TestInferRefusesMisnumberedEvents(t *testing.T) {
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 1, 2),
		partEvent(1, 1, 3),
		partEvent(5, 1, 2),
		partEvent(2, 1, 3),
	}}
	_, err := Infer(log)
	if err == nil || !strings.Contains(err.Error(), "event 2 has Seq 5") {
		t.Errorf("Infer of a log numbered 0 1 5 2: %v, want an error naming event 2", err)
	}
}

func TestInferPrefixStacksNoImplicitEdge(t *testing.T) {
	// Second stack is a strict prefix of the first: no divergent pair.
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 1, 2, 3),
		partEvent(1, 1, 2),
	}}
	inf, err := Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	if inf.ImplicitEdges != 0 {
		t.Errorf("ImplicitEdges = %d, want 0", inf.ImplicitEdges)
	}
}

func TestInferSkipsEmptyStacks(t *testing.T) {
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 1, 2),
		partEvent(1), // stackless
		partEvent(2, 1, 3),
	}}
	inf, err := Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	if inf.SkippedEvents != 1 {
		t.Errorf("SkippedEvents = %d, want 1", inf.SkippedEvents)
	}
	// The stackless event must not break adjacency: implicit edge 2->3
	// still connects events 0 and 2.
	if !inf.Graph.HasEdge(2, 3) {
		t.Error("implicit edge across stackless event missing")
	}
}

func TestInferSingleFrameStacks(t *testing.T) {
	log := &partition.Log{Events: []partition.Event{
		partEvent(0, 7),
		partEvent(1, 8),
	}}
	inf, err := Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	// No explicit edges (single frames), one implicit edge 7->8.
	if inf.ExplicitEdges != 0 || inf.ImplicitEdges != 1 || !inf.Graph.HasEdge(7, 8) {
		t.Errorf("got explicit=%d implicit=%d", inf.ExplicitEdges, inf.ImplicitEdges)
	}
}

func TestInferNilLog(t *testing.T) {
	if _, err := Infer(nil); err == nil {
		t.Error("Infer(nil) succeeded")
	}
}

// TestInferSeparatesPayloadComponent checks the Figure 4 phenomenon on
// simulated data: the mixed CFG of an offline-infected process contains
// the benign subgraph plus payload nodes beyond the benign address range.
func TestInferSeparatesPayloadComponent(t *testing.T) {
	payload := appsim.ReverseTCPProfile()
	proc, err := appsim.NewProcess(appsim.VimProfile(), &payload, appsim.MethodOfflineInfection)
	if err != nil {
		t.Fatal(err)
	}
	benignLog, err := proc.GenerateLog(appsim.GenConfig{Seed: 1, Events: 2000, PID: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A clean process for the benign CFG (no payload events at all).
	clean, err := appsim.NewProcess(appsim.VimProfile(), nil, appsim.MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	cleanLog, err := clean.GenerateLog(appsim.GenConfig{Seed: 2, Events: 2000, PID: 2})
	if err != nil {
		t.Fatal(err)
	}
	_ = benignLog

	mixedLog, err := proc.GenerateLog(appsim.GenConfig{Seed: 3, Events: 2000, PayloadFraction: 0.4, PID: 3})
	if err != nil {
		t.Fatal(err)
	}

	cleanPart, err := partition.Split(cleanLog)
	if err != nil {
		t.Fatal(err)
	}
	mixedPart, err := partition.Split(mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	benign, err := Infer(cleanPart)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := Infer(mixedPart)
	if err != nil {
		t.Fatal(err)
	}

	_, bHi := proc.BenignRange()
	var payloadNodes, benignNodes int
	for _, n := range mixed.Graph.Nodes() {
		if n >= bHi {
			payloadNodes++
		} else {
			benignNodes++
		}
	}
	if payloadNodes == 0 {
		t.Fatal("mixed CFG has no payload nodes")
	}
	if benignNodes == 0 {
		t.Fatal("mixed CFG has no benign nodes")
	}
	// The benign CFG must contain no payload-range nodes.
	for _, n := range benign.Graph.Nodes() {
		if n >= bHi {
			t.Fatalf("benign CFG contains payload-range node 0x%x", n)
		}
	}
	// Most mixed-CFG benign edges also occur in the clean CFG.
	d := DiffGraphs(benign.Graph, mixed.Graph)
	if len(d.Common) == 0 {
		t.Error("no common edges between benign and mixed CFGs")
	}
}

// repeatLog returns log's events repeated k times, numbered by position.
func repeatLog(t testing.TB, log *trace.Log, k int) *partition.Log {
	t.Helper()
	rep := &trace.Log{App: log.App, PID: log.PID, Modules: log.Modules}
	for range k {
		for _, e := range log.Events {
			e.Seq = rep.Len()
			rep.Events = append(rep.Events, e)
		}
	}
	part, err := partition.Split(rep)
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// TestInferAllocs requires Infer to allocate per distinct walk, walk pair
// and edge, not per event: a log that repeats the same walks allocates
// as often at 8× its length as at 1×. The log holds its events twice, so
// the pair that joins one copy to the next is in it at 1× as well.
func TestInferAllocs(t *testing.T) {
	proc, err := appsim.NewProcess(appsim.VimProfile(), nil, appsim.MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	log, err := proc.GenerateLog(appsim.GenConfig{Seed: 1, Events: 1500, PID: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(part *partition.Log) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Infer(part); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, eight := allocs(repeatLog(t, log, 2)), allocs(repeatLog(t, log, 16))
	if once != eight {
		t.Errorf("Infer allocated %.0f times on a 3,000-event log and %.0f times on the same walks 8× over", once, eight)
	}
}
