package cfg

import "sort"

// This file implements the threat model's backtracking goal (§II-A): once
// anomalous behaviour is detected, trace back to the attack's entry point
// — the control transfer where benign code first handed execution to the
// payload (a detour hook in a trojaned binary, or the thread bootstrap of
// injected code).

// EntryPoint is one candidate attack entry: an explicit control transfer
// from code the benign CFG knows into code it does not.
type EntryPoint struct {
	// Edge is the crossing control-flow edge (benign-known From,
	// unknown To).
	Edge Edge
	// Events lists the ordinals of the events whose stack walks recorded
	// the transfer, in first-observation order. The first entry is the
	// earliest observable trace of the attack.
	Events []int
}

// EntryPoints backtracks attack entry points in a mixed-log inference:
// explicit edges (observed as real function invocations within a stack
// walk, not inferred from event adjacency) whose source the benign CFG
// contains and whose target it does not. Targets inside the benign CFG's
// address span are excluded by the same density heuristic Algorithm 2
// uses: code between known-benign functions is most likely unobserved
// benign functionality, not a payload. Results are ordered by earliest
// contributing event.
func EntryPoints(benign *Graph, mixed *Inference) []EntryPoint {
	density := benign.DensityArray()
	inSpan := func(addr uint64) bool {
		return len(density) >= 2 && addr >= density[0] && addr <= density[len(density)-1]
	}
	var out []EntryPoint
	for id, e := range mixed.Edges {
		if !mixed.Explicit[id] || !benign.HasNode(e.From) || benign.HasNode(e.To) || inSpan(e.To) {
			continue
		}
		out = append(out, EntryPoint{Edge: e, Events: mixed.Events(id)})
	}
	sort.Slice(out, func(i, j int) bool {
		fi, fj := firstEvent(out[i]), firstEvent(out[j])
		if fi != fj {
			return fi < fj
		}
		if out[i].Edge.From != out[j].Edge.From {
			return out[i].Edge.From < out[j].Edge.From
		}
		return out[i].Edge.To < out[j].Edge.To
	})
	return out
}

func firstEvent(ep EntryPoint) int {
	if len(ep.Events) == 0 {
		return int(^uint(0) >> 1)
	}
	return ep.Events[0]
}
