// Package cfg implements the paper's Control Flow Graph Inference Module:
// it derives an (incomplete but structurally faithful) control flow graph
// of the application purely from the application stack traces in the
// system event log — Algorithm 1 of the paper — plus the graph operations
// the weight-assessment stage needs (reachability, density arrays) and
// tooling for comparison and DOT export (Figure 4).
//
// Inference works on dense ids: it numbers the distinct edges in (From,
// To) order, takes each stack walk's explicit edges once through the
// partitioned log's walk index and each implicit edge once per pair of
// adjacent walks, and records per event only the id of the edge set it
// contributed. Weight assessment scores each edge and each set once.
package cfg

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Edge is one control-flow edge between two code addresses.
type Edge struct {
	From, To uint64
}

// Graph is a directed graph over code addresses.
type Graph struct {
	succ map[uint64]map[uint64]struct{}
	// numEdges caches the edge count.
	numEdges int
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{succ: make(map[uint64]map[uint64]struct{})}
}

// AddEdge inserts the edge from→to; duplicates are ignored. Both endpoints
// become graph nodes.
func (g *Graph) AddEdge(from, to uint64) {
	set, ok := g.succ[from]
	if !ok {
		set = make(map[uint64]struct{})
		g.succ[from] = set
	}
	if _, dup := set[to]; dup {
		return
	}
	set[to] = struct{}{}
	g.numEdges++
	// Ensure the target is present as a node even if it has no
	// successors.
	if _, ok := g.succ[to]; !ok {
		g.succ[to] = make(map[uint64]struct{})
	}
}

// HasEdge reports whether the direct edge from→to exists.
func (g *Graph) HasEdge(from, to uint64) bool {
	_, ok := g.succ[from][to]
	return ok
}

// HasNode reports whether addr appears in the graph.
func (g *Graph) HasNode(addr uint64) bool {
	_, ok := g.succ[addr]
	return ok
}

// NumNodes returns the number of distinct addresses in the graph.
func (g *Graph) NumNodes() int { return len(g.succ) }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Nodes returns every node address in ascending order.
func (g *Graph) Nodes() []uint64 {
	out := make([]uint64, 0, len(g.succ))
	for a := range g.succ {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Successors returns the direct successors of addr in ascending order.
func (g *Graph) Successors(addr uint64) []uint64 {
	set := g.succ[addr]
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns every edge, ordered by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for from, set := range g.succ {
		for to := range set {
			out = append(out, Edge{From: from, To: to})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Reachability answers the paper's CHECK_CFG over one graph: whether
// one address reaches another along one or more edges. It numbers the
// graph's nodes once and traverses from a start once for every query
// about it, so queries grouped by start cost one traversal per distinct
// start, and traversals allocate nothing. It holds a copy of the graph's
// structure, so later changes to the graph do not show in it.
type Reachability struct {
	nodes []uint64 // ascending; a node's id is its index
	off   []int32  // node i's successors are succ[off[i]:off[i+1]]
	succ  []int32
	// reached marks the nodes reachable from start, valid once walked.
	reached []bool
	start   uint64
	walked  bool
	stack   []int32
}

// Reachability returns the graph's reachability index.
func (g *Graph) Reachability() *Reachability {
	r := &Reachability{nodes: g.Nodes(), succ: make([]int32, 0, g.numEdges)}
	r.off = make([]int32, len(r.nodes)+1)
	for i, a := range r.nodes {
		for b := range g.succ[a] {
			r.succ = append(r.succ, int32(r.id(b)))
		}
		r.off[i+1] = int32(len(r.succ))
	}
	r.reached = make([]bool, len(r.nodes))
	// A walk pushes the start's successors, then each node's at most
	// once: never more than twice the edges.
	r.stack = make([]int32, 0, 2*len(r.succ))
	return r
}

// id returns addr's node id, or -1 when addr is not a node.
func (r *Reachability) id(addr uint64) int {
	if i, ok := slices.BinarySearch(r.nodes, addr); ok {
		return i
	}
	return -1
}

// Reachable reports whether end can be reached from start along one or
// more edges (start == end requires a cycle). It is cycle-safe, unlike
// the paper's pseudo-code.
func (r *Reachability) Reachable(start, end uint64) bool {
	if !r.walked || start != r.start {
		r.walk(start)
	}
	i := r.id(end)
	return i >= 0 && r.reached[i]
}

// walk marks the nodes reachable from start.
func (r *Reachability) walk(start uint64) {
	clear(r.reached)
	r.start, r.walked = start, true
	s := r.id(start)
	if s < 0 {
		return
	}
	r.stack = append(r.stack[:0], r.succ[r.off[s]:r.off[s+1]]...)
	for len(r.stack) > 0 {
		cur := r.stack[len(r.stack)-1]
		r.stack = r.stack[:len(r.stack)-1]
		if r.reached[cur] {
			continue
		}
		r.reached[cur] = true
		for _, next := range r.succ[r.off[cur]:r.off[cur+1]] {
			if !r.reached[next] {
				r.stack = append(r.stack, next)
			}
		}
	}
}

// DensityArray returns the sorted distinct addresses of all graph nodes —
// the paper's density array over the benign CFG, used to estimate weights
// for paths absent from it. (The paper's pseudo-code inserts endpoints
// with duplicates; deduplicating is required for the weight formula's
// neighbour gaps to be non-zero.)
func (g *Graph) DensityArray() []uint64 { return g.Nodes() }

// WeaklyConnectedComponents returns the node sets of the graph's weakly
// connected components, largest first. The paper's Figure 4 intuition —
// payload code forms its own subgraph — shows up as separate components.
func (g *Graph) WeaklyConnectedComponents() [][]uint64 {
	// Undirected adjacency.
	adj := make(map[uint64][]uint64, len(g.succ))
	for from, set := range g.succ {
		for to := range set {
			adj[from] = append(adj[from], to)
			adj[to] = append(adj[to], from)
		}
	}
	visited := make(map[uint64]bool, len(g.succ))
	var comps [][]uint64
	for _, start := range g.Nodes() {
		if visited[start] {
			continue
		}
		var comp []uint64
		stack := []uint64{start}
		visited[start] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, cur)
			for _, next := range adj[cur] {
				if !visited[next] {
					visited[next] = true
					stack = append(stack, next)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool { return len(comps[i]) > len(comps[j]) })
	return comps
}

// DOT renders the graph in Graphviz format. resolve, when non-nil, maps
// addresses to display labels; nil falls back to hex addresses.
func (g *Graph) DOT(name string, resolve func(uint64) string) string {
	label := func(a uint64) string {
		if resolve != nil {
			if s := resolve(a); s != "" {
				return s
			}
		}
		return fmt.Sprintf("0x%x", a)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", label(e.From), label(e.To))
	}
	b.WriteString("}\n")
	return b.String()
}

// Diff summarises the structural comparison of two graphs.
type Diff struct {
	// Common, OnlyA and OnlyB partition the union of the two edge sets.
	Common []Edge
	OnlyA  []Edge
	OnlyB  []Edge
}

// DiffGraphs compares the edges of a and b (e.g. the benign and the mixed
// CFG of Figure 4).
func DiffGraphs(a, b *Graph) Diff {
	var d Diff
	for _, e := range a.Edges() {
		if b.HasEdge(e.From, e.To) {
			d.Common = append(d.Common, e)
		} else {
			d.OnlyA = append(d.OnlyA, e)
		}
	}
	for _, e := range b.Edges() {
		if !a.HasEdge(e.From, e.To) {
			d.OnlyB = append(d.OnlyB, e)
		}
	}
	return d
}
