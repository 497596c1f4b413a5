// Package callgraph implements the paper's first comparison model: a
// decision procedure over system-level function call graphs (§III-D1).
//
// From the system stack traces of the benign and the mixed training logs
// it builds two call graphs — the benign call graph (BCG, positive model)
// and the mixed call graph (MCG, negative model) — whose nodes are
// module-qualified system functions and whose edges are the adjacent
// invocation pairs observed in stack walks. A testing event's call
// relations are then looked up in both graphs: relations present only in
// the BCG vote benign, relations present only in the MCG vote malicious,
// and relations in both or neither are uninformative. Events whose votes
// tie (or that produce no votes) are undecidable — the model's fundamental
// weakness the paper quantifies.
package callgraph

import (
	"errors"
	"fmt"

	"repro/internal/partition"
	"repro/internal/telemetry"
)

// Matcher telemetry: verdict mix (the undecided share is the model's
// headline weakness) and the sizes of the trained graphs. Verdict counters
// are resolved once here so the per-event path stays a plain atomic add.
var (
	mVerdicts         = telemetry.NewCounterVec("callgraph_verdicts_total", "event classifications by the call-graph matcher", "verdict")
	mVerdictBenign    = mVerdicts.With("benign")
	mVerdictMalicious = mVerdicts.With("malicious")
	mVerdictUndecided = mVerdicts.With("undecided")
	mWindowVerdicts   = telemetry.NewCounterVec("callgraph_window_verdicts_total", "window classifications by the call-graph matcher", "verdict")
	mWinVerdBenign    = mWindowVerdicts.With("benign")
	mWinVerdMalicious = mWindowVerdicts.With("malicious")
	mWinVerdUndecided = mWindowVerdicts.With("undecided")
	mBCGEdges         = telemetry.NewGauge("callgraph_bcg_edges", "edges in the last trained benign call graph")
	mMCGEdges         = telemetry.NewGauge("callgraph_mcg_edges", "edges in the last trained mixed call graph")
)

// Verdict is the outcome of classifying one event or window.
type Verdict int

// Verdicts.
const (
	// VerdictUndecided means the call-graph evidence was absent or
	// contradictory.
	VerdictUndecided Verdict = iota + 1
	VerdictBenign
	VerdictMalicious
)

var verdictNames = map[Verdict]string{
	VerdictUndecided: "undecided",
	VerdictBenign:    "benign",
	VerdictMalicious: "malicious",
}

// String returns the verdict name.
func (v Verdict) String() string {
	if n, ok := verdictNames[v]; ok {
		return n
	}
	return fmt.Sprintf("Verdict(%d)", int(v))
}

// edge is one call relation between two module-qualified functions.
type edge struct {
	caller string
	callee string
}

// Model holds the benign and mixed system-level call graphs.
type Model struct {
	bcg map[edge]struct{}
	mcg map[edge]struct{}
}

// Train builds the BCG from the benign log and the MCG from the mixed log.
func Train(benign, mixed *partition.Log) (*Model, error) {
	if benign == nil || mixed == nil {
		return nil, errors.New("callgraph: nil training log")
	}
	m := &Model{
		bcg: make(map[edge]struct{}),
		mcg: make(map[edge]struct{}),
	}
	addAll(m.bcg, benign)
	addAll(m.mcg, mixed)
	mBCGEdges.Set(float64(len(m.bcg)))
	mMCGEdges.Set(float64(len(m.mcg)))
	return m, nil
}

// BCGSize and MCGSize report the graph sizes (edge counts).
func (m *Model) BCGSize() int { return len(m.bcg) }

// MCGSize reports the mixed call graph's edge count.
func (m *Model) MCGSize() int { return len(m.mcg) }

// addAll adds the call relations of every event of the log to g. The
// graph is a set and an event's relations depend on its stack walk
// alone, so only the first event of each distinct walk is visited.
func addAll(g map[edge]struct{}, log *partition.Log) {
	for w := 0; w < log.NumWalks(); w++ {
		for _, e := range eventEdges(&log.Events[log.FirstOf(w)]) {
			g[e] = struct{}{}
		}
	}
}

// eventEdges extracts the call relations from an event's system stack
// trace: one edge per adjacent frame pair.
func eventEdges(e *partition.Event) []edge {
	if len(e.SysTrace) < 2 {
		return nil
	}
	out := make([]edge, 0, len(e.SysTrace)-1)
	for i := 0; i+1 < len(e.SysTrace); i++ {
		a, b := e.SysTrace[i], e.SysTrace[i+1]
		out = append(out, edge{
			caller: a.Module + "!" + a.Function,
			callee: b.Module + "!" + b.Function,
		})
	}
	return out
}

// Classify scores one event: call relations exclusive to the BCG vote
// benign, relations exclusive to the MCG vote malicious; a majority
// decides, anything else is undecidable.
func (m *Model) Classify(e *partition.Event) Verdict {
	benignVotes, maliciousVotes := m.votes(e)
	switch {
	case benignVotes > maliciousVotes:
		mVerdictBenign.Inc()
		return VerdictBenign
	case maliciousVotes > benignVotes:
		mVerdictMalicious.Inc()
		return VerdictMalicious
	default:
		mVerdictUndecided.Inc()
		return VerdictUndecided
	}
}

// votes counts the event's exclusive-edge evidence.
func (m *Model) votes(e *partition.Event) (benign, malicious int) {
	for _, ed := range eventEdges(e) {
		_, inB := m.bcg[ed]
		_, inM := m.mcg[ed]
		switch {
		case inB && !inM:
			benign++
		case inM && !inB:
			malicious++
		}
	}
	return benign, malicious
}

// WindowVotes aggregates the exclusive-edge vote counts of a run of
// consecutive events — the raw evidence ClassifyWindow decides on, exposed
// so degraded-mode detectors can report vote margins as scores.
func (m *Model) WindowVotes(events []partition.Event) (benign, malicious int) {
	for i := range events {
		b, mal := m.votes(&events[i])
		benign += b
		malicious += mal
	}
	return benign, malicious
}

// ClassifyWindow aggregates the vote counts of a run of consecutive events
// (the same 10-event windows the statistical models classify) and decides
// by vote majority.
func (m *Model) ClassifyWindow(events []partition.Event) Verdict {
	benignVotes, maliciousVotes := m.WindowVotes(events)
	switch {
	case benignVotes > maliciousVotes:
		mWinVerdBenign.Inc()
		return VerdictBenign
	case maliciousVotes > benignVotes:
		mWinVerdMalicious.Inc()
		return VerdictMalicious
	default:
		mWinVerdUndecided.Inc()
		return VerdictUndecided
	}
}
