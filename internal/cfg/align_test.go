package cfg

import (
	"math/rand"
	"testing"
)

// chainGraph builds a structured graph: a root fanning out to several
// chains of distinct lengths (so most nodes have unique fingerprints).
func chainGraph(base uint64, chains []int) *Graph {
	g := NewGraph()
	addr := base + 0x100
	for _, length := range chains {
		prev := base // root
		for i := 0; i < length; i++ {
			g.AddEdge(prev, addr)
			prev = addr
			addr += 0x80
		}
	}
	return g
}

// shiftGraph returns a copy of g with every address >= from shifted by
// delta (simulating recompilation after a source insertion).
func shiftGraph(g *Graph, from uint64, delta uint64) *Graph {
	out := NewGraph()
	shift := func(a uint64) uint64 {
		if a >= from {
			return a + delta
		}
		return a
	}
	for _, e := range g.Edges() {
		out.AddEdge(shift(e.From), shift(e.To))
	}
	return out
}

func TestAlignIdenticalGraphs(t *testing.T) {
	g := chainGraph(0x400000, []int{2, 3, 5, 7, 9})
	al := AlignGraphs(g, g)
	if al.Pivots == 0 {
		t.Fatal("no pivots on identical graphs")
	}
	if len(al.Offsets) == 0 || al.Offsets[0] != 0 {
		t.Fatalf("offsets = %v, want leading 0", al.Offsets)
	}
	if f := al.MatchedFraction(g); f < 0.9 {
		t.Errorf("matched fraction = %.2f, want >= 0.9", f)
	}
	for b, a := range al.BToA {
		if b != a {
			t.Fatalf("identity alignment mapped 0x%x to 0x%x", b, a)
		}
	}
}

func TestAlignUniformShift(t *testing.T) {
	benign := chainGraph(0x400000, []int{2, 3, 5, 7, 9, 11})
	shifted := shiftGraph(benign, 0, 0x2000) // whole binary relocated
	al := AlignGraphs(benign, shifted)
	if len(al.Offsets) == 0 || al.Offsets[0] != 0x2000 {
		t.Fatalf("offsets = %v, want leading 0x2000", al.Offsets)
	}
	if f := al.MatchedFraction(shifted); f < 0.9 {
		t.Errorf("matched fraction = %.2f, want >= 0.9", f)
	}
	// Translation recovers original addresses.
	for b, a := range al.BToA {
		if b-a != 0x2000 {
			t.Fatalf("node 0x%x mapped with offset 0x%x", b, b-a)
		}
	}
	// Translating every edge reproduces the benign edge set.
	back := NewGraph()
	for _, e := range shifted.Edges() {
		from, _ := al.Translate(e.From)
		to, _ := al.Translate(e.To)
		back.AddEdge(from, to)
	}
	d := DiffGraphs(benign, back)
	if len(d.OnlyA) != 0 || len(d.OnlyB) != 0 {
		t.Errorf("translated graph differs: onlyA=%d onlyB=%d", len(d.OnlyA), len(d.OnlyB))
	}
}

func TestAlignInsertionShift(t *testing.T) {
	// Source-level trojan: functions above the insertion point shift by
	// 0x1000, earlier ones stay. Piecewise-constant offsets {0, 0x1000}.
	benign := chainGraph(0x400000, []int{2, 3, 5, 7, 9, 11, 13})
	mixed := shiftGraph(benign, 0x400a00, 0x1000)
	// The trojan also adds its own subgraph.
	mixed.AddEdge(0x410000, 0x410080)
	mixed.AddEdge(0x410080, 0x410100)

	al := AlignGraphs(benign, mixed)
	if len(al.Offsets) < 2 {
		t.Fatalf("offsets = %v, want both 0 and 0x1000", al.Offsets)
	}
	has := map[int64]bool{}
	for _, off := range al.Offsets {
		has[off] = true
	}
	if !has[0] || !has[0x1000] {
		t.Fatalf("offsets = %v, want {0, 0x1000}", al.Offsets)
	}
	if f := al.MatchedFraction(mixed); f < 0.6 {
		t.Errorf("matched fraction = %.2f, want >= 0.6", f)
	}
	// Payload nodes must stay unmatched.
	for _, payload := range []uint64{0x410000, 0x410080, 0x410100} {
		if _, ok := al.BToA[payload]; ok {
			t.Errorf("payload node 0x%x was aligned to benign code", payload)
		}
	}
}

func TestAlignmentTranslateUnmatched(t *testing.T) {
	al := &Alignment{BToA: map[uint64]uint64{10: 5}}
	if a, ok := al.Translate(10); !ok || a != 5 {
		t.Errorf("Translate(10) = (%d,%v)", a, ok)
	}
	if a, ok := al.Translate(99); ok || a != 99 {
		t.Errorf("Translate(99) = (%d,%v), want identity,false", a, ok)
	}
}

func TestMatchedFractionEmptyGraph(t *testing.T) {
	al := &Alignment{BToA: map[uint64]uint64{}}
	if f := al.MatchedFraction(NewGraph()); f != 0 {
		t.Errorf("MatchedFraction(empty) = %v", f)
	}
}

// Randomised property: alignment of a randomly shifted structured graph
// recovers a majority of nodes at the right offset.
func TestAlignRandomisedShifts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		chains := make([]int, 5+rng.Intn(4))
		for i := range chains {
			chains[i] = 2 + i + rng.Intn(2) // distinct-ish lengths
		}
		benign := chainGraph(0x400000, chains)
		delta := uint64(0x800 * (1 + rng.Intn(8)))
		shifted := shiftGraph(benign, 0, delta)
		al := AlignGraphs(benign, shifted)
		if len(al.Offsets) == 0 || al.Offsets[0] != int64(delta) {
			t.Fatalf("trial %d: offsets %v, want leading %#x", trial, al.Offsets, delta)
		}
		if f := al.MatchedFraction(shifted); f < 0.7 {
			t.Fatalf("trial %d: matched fraction %.2f", trial, f)
		}
	}
}
