package cfg

import (
	"sort"
)

// This file implements the paper's §VI-A future-work extension: aligning
// CFGs under address shifts. A source-level trojan — malicious code added
// to the application's source before recompilation — moves every benign
// function, so exact address matching between the benign CFG and a mixed
// CFG fails even though the benign subgraph's *structure* is unchanged.
// AlignGraphs identifies pivotal nodes by structural fingerprint, votes on
// candidate address offsets, and produces a node correspondence that lets
// weight assessment run in the benign CFG's coordinate system.

// Alignment is a correspondence from nodes of graph B (e.g. a mixed CFG)
// to nodes of graph A (the benign CFG).
type Alignment struct {
	// BToA maps matched B-node addresses to their A counterparts.
	BToA map[uint64]uint64
	// Offsets holds the accepted address shifts (B minus A), most voted
	// first.
	Offsets []int64
	// Pivots counts the unique-fingerprint node pairs that anchored the
	// alignment.
	Pivots int
}

// MatchedFraction reports the share of B's nodes that were aligned.
func (al *Alignment) MatchedFraction(b *Graph) float64 {
	if b.NumNodes() == 0 {
		return 0
	}
	return float64(len(al.BToA)) / float64(b.NumNodes())
}

// Translate maps a B address to A coordinates; unmatched addresses return
// themselves with ok=false.
func (al *Alignment) Translate(addr uint64) (uint64, bool) {
	a, ok := al.BToA[addr]
	if !ok {
		return addr, false
	}
	return a, true
}

// wlRounds is how many Weisfeiler-Leman refinement rounds structural
// colouring runs; enough for nodes to absorb the topology of their
// wlRounds-hop neighbourhood in both edge directions.
const wlRounds = 6

// wlColorLevels assigns every node a structural colour per refinement
// level by Weisfeiler-Leman refinement: starting from (out-degree,
// in-degree), each round rehashes a node's colour together with the sorted
// colours of its successors and predecessors. Early levels capture coarse
// structure robust to noise edges; later levels are highly discriminative.
// Colours unique within both graphs at any level identify the paper's
// "pivotal nodes".
func wlColorLevels(g *Graph) []map[uint64]uint64 {
	nodes := g.Nodes()
	pred := make(map[uint64][]uint64, len(nodes))
	for _, e := range g.Edges() {
		pred[e.To] = append(pred[e.To], e.From)
	}
	colors := make(map[uint64]uint64, len(nodes))
	for _, n := range nodes {
		colors[n] = hashPair(uint64(len(g.Successors(n))), uint64(len(pred[n])))
	}
	levels := []map[uint64]uint64{colors}
	for round := 0; round < wlRounds; round++ {
		next := make(map[uint64]uint64, len(nodes))
		for _, n := range nodes {
			h := colors[n]
			h = hashPair(h, hashMultiset(colors, g.Successors(n)))
			h = hashPair(h, hashMultiset(colors, pred[n])+1)
			next[n] = h
		}
		colors = next
		levels = append(levels, colors)
	}
	return levels
}

// hashPair mixes two words (FNV-style).
func hashPair(a, b uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range [2]uint64{a, b} {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// hashMultiset order-independently hashes the colours of the given nodes.
func hashMultiset(colors map[uint64]uint64, nodes []uint64) uint64 {
	cs := make([]uint64, len(nodes))
	for i, n := range nodes {
		cs[i] = colors[n]
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
	h := uint64(len(cs)) + 0x9e3779b97f4a7c15
	for _, c := range cs {
		h = hashPair(h, c)
	}
	return h
}

// uniqueByColor inverts a colour map, keeping only colours held by exactly
// one node.
func uniqueByColor(colors map[uint64]uint64) map[uint64]uint64 {
	count := make(map[uint64]int, len(colors))
	for _, c := range colors {
		count[c]++
	}
	out := make(map[uint64]uint64)
	for n, c := range colors {
		if count[c] == 1 {
			out[c] = n
		}
	}
	return out
}

// maxAlignmentOffsets bounds how many distinct shifts the aligner accepts
// (a recompiled binary shifts code in a handful of contiguous runs).
const maxAlignmentOffsets = 4

// AlignGraphs aligns graph b onto graph a under piecewise-constant address
// shifts:
//
//  1. Weisfeiler-Leman colour refinement identifies pivot pairs — nodes
//     with structurally unique colours in both graphs at any refinement
//     level;
//  2. candidate shifts are scored by greedy overlap correlation (how many
//     unexplained b nodes land on a nodes, with bonuses for colour
//     agreement and pivot pairs), accepting up to maxAlignmentOffsets
//     shifts;
//  3. every b node whose address minus an accepted shift hits an a node
//     with compatible degree structure is aligned.
func AlignGraphs(a, b *Graph) *Alignment {
	al := &Alignment{BToA: make(map[uint64]uint64)}
	levelsA := wlColorLevels(a)
	levelsB := wlColorLevels(b)

	// Count unique-colour pivot pairs across refinement levels (reported
	// for diagnostics; the paper's "pivotal nodes"). Their offsets seed
	// the bonus scoring below.
	pivotPairs := make(map[[2]uint64]bool)
	for lvl := range levelsA {
		uniqueA := uniqueByColor(levelsA[lvl])
		uniqueB := uniqueByColor(levelsB[lvl])
		for c, bn := range uniqueB {
			if an, ok := uniqueA[c]; ok && !pivotPairs[[2]uint64{bn, an}] {
				pivotPairs[[2]uint64{bn, an}] = true
				al.Pivots++
			}
		}
	}

	// Offset discovery by greedy overlap correlation: score every
	// candidate shift δ by how many (still unmatched) b nodes land on a
	// nodes under it, with a bonus when the superimposed nodes share a
	// coarse structural colour or form a pivot pair. Accept the best
	// offset, remove the b nodes it explains, and repeat — recompiled
	// binaries shift code in a handful of contiguous runs
	// (piecewise-constant δ).
	aNodes := make(map[uint64]bool, a.NumNodes())
	for _, n := range a.Nodes() {
		aNodes[n] = true
	}
	remaining := make(map[uint64]bool, b.NumNodes())
	for _, n := range b.Nodes() {
		remaining[n] = true
	}
	colorBonus := func(bn, an uint64) float64 {
		var bonus float64
		if pivotPairs[[2]uint64{bn, an}] {
			bonus += 2
		}
		// Level-1 colour agreement: one refinement round of structure.
		if levelsA[1][an] == levelsB[1][bn] {
			bonus++
		}
		return bonus
	}
	minExplained := 3
	if n := a.NumNodes() / 5; n > minExplained {
		minExplained = n
	}
	for len(al.Offsets) < maxAlignmentOffsets && len(remaining) > 0 {
		scores := make(map[int64]float64)
		for bn := range remaining {
			for an := range aNodes {
				scores[int64(bn)-int64(an)]++
			}
		}
		// Keep only plausible offsets, then refine with colour bonuses.
		type cand struct {
			off   int64
			score float64
		}
		var best cand
		bestSet := false
		for off, base := range scores {
			if int(base) < minExplained {
				continue
			}
			score := base
			for bn := range remaining {
				c := int64(bn) - off
				if c >= 0 && aNodes[uint64(c)] {
					score += colorBonus(bn, uint64(c))
				}
			}
			if !bestSet || score > best.score || (score == best.score && abs64(off) < abs64(best.off)) {
				best = cand{off, score}
				bestSet = true
			}
		}
		if !bestSet {
			break
		}
		al.Offsets = append(al.Offsets, best.off)
		for bn := range remaining {
			c := int64(bn) - best.off
			if c >= 0 && aNodes[uint64(c)] {
				delete(remaining, bn)
			}
		}
	}

	// Match every b node through the accepted offsets, best offset first.
	// Compatibility uses out-degrees, not full colours: the mixed graph
	// sees extra edges (payload hooks, implicit paths), so exact colour
	// equality would be too strict away from pivots.
	for _, bn := range b.Nodes() {
		outB := len(b.Successors(bn))
		for _, off := range al.Offsets {
			cand := int64(bn) - off
			if cand < 0 {
				continue
			}
			an := uint64(cand)
			if !a.HasNode(an) {
				continue
			}
			outA := len(a.Successors(an))
			if outA <= outB+1 && outB <= outA+3 {
				al.BToA[bn] = an
				break
			}
		}
	}
	return al
}

// abs64 returns |x|.
func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
