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
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/partition"
	"repro/internal/telemetry"
)

// Matcher telemetry: window verdict mix (the undecided share is the
// model's headline weakness) and the sizes of the trained graphs. Verdict
// counters are resolved once here so the per-window path stays a plain
// atomic add.
var (
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

// Edge is one call relation between two module-qualified functions.
type Edge struct {
	Caller string
	Callee string
}

// Model holds the benign and mixed system-level call graphs.
type Model struct {
	bcg map[Edge]struct{}
	mcg map[Edge]struct{}
}

// Train builds the BCG from the benign log and the MCG from the mixed log.
func Train(benign, mixed *partition.Log) (*Model, error) {
	if benign == nil || mixed == nil {
		return nil, errors.New("callgraph: nil training log")
	}
	m := &Model{
		bcg: make(map[Edge]struct{}),
		mcg: make(map[Edge]struct{}),
	}
	addAll(m.bcg, benign)
	addAll(m.mcg, mixed)
	mBCGEdges.Set(float64(len(m.bcg)))
	mMCGEdges.Set(float64(len(m.mcg)))
	return m, nil
}

// NewModel returns the model with the given BCG and MCG edges, as a
// model bundle stores them.
func NewModel(bcg, mcg []Edge) *Model {
	m := &Model{bcg: make(map[Edge]struct{}, len(bcg)), mcg: make(map[Edge]struct{}, len(mcg))}
	for _, e := range bcg {
		m.bcg[e] = struct{}{}
	}
	for _, e := range mcg {
		m.mcg[e] = struct{}{}
	}
	return m
}

// Edges returns the BCG and MCG edges, each sorted by caller then
// callee, so equal models list equal edges.
func (m *Model) Edges() (bcg, mcg []Edge) { return sortedEdges(m.bcg), sortedEdges(m.mcg) }

func sortedEdges(g map[Edge]struct{}) []Edge {
	out := make([]Edge, 0, len(g))
	for e := range g {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Edge) int {
		return cmp.Or(cmp.Compare(a.Caller, b.Caller), cmp.Compare(a.Callee, b.Callee))
	})
	return out
}

// addAll adds the call relations of every event of the log to g. The
// graph is a set and an event's relations depend on its stack walk
// alone, so only the first event of each distinct walk is visited.
func addAll(g map[Edge]struct{}, log *partition.Log) {
	for w := 0; w < log.NumWalks(); w++ {
		for _, e := range eventEdges(&log.Events[log.FirstOf(w)]) {
			g[e] = struct{}{}
		}
	}
}

// eventEdges extracts the call relations from an event's system stack
// trace: one edge per adjacent frame pair.
func eventEdges(e *partition.Event) []Edge {
	if len(e.SysTrace) < 2 {
		return nil
	}
	out := make([]Edge, 0, len(e.SysTrace)-1)
	for i := 0; i+1 < len(e.SysTrace); i++ {
		a, b := e.SysTrace[i], e.SysTrace[i+1]
		out = append(out, Edge{
			Caller: a.Module + "!" + a.Function,
			Callee: b.Module + "!" + b.Function,
		})
	}
	return out
}

// votes counts the event's exclusive-edge evidence: call relations
// exclusive to the BCG vote benign, relations exclusive to the MCG vote
// malicious.
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
// by vote majority; anything else is undecidable.
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
