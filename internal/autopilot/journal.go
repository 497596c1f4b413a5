package autopilot

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/registry"
)

// journalFile is the append-only transition log under Config.StateDir.
const journalFile = "autopilot.jsonl"

// Journaled states, in cycle order. Every transition follows its side
// effect (written-last commit): the record is appended only after the
// work it names has landed, so a crash between the two leaves the
// journal one step behind reality and recovery re-drives the missing
// step idempotently.
const (
	stateCycleStart    = "cycle-start"
	statePublished     = "published"
	stateShadowStarted = "shadow-started"
	stateEvaluated     = "evaluated"
	statePromoted      = "promoted"
	stateCycleDone     = "cycle-done"
	statePaused        = "paused"
	stateResumed       = "resumed"
	stateBreakerOpen   = "breaker-open"
	stateBreakerClosed = "breaker-closed"
)

// Cycle outcomes recorded on cycle-done (and, for approved/rejected, on
// evaluated).
const (
	// OutcomePromoted: the candidate passed the gate and is serving.
	OutcomePromoted = "promoted"
	// OutcomeRejected: the gate blocked the candidate; the champion keeps
	// serving. A clean outcome, not a failure.
	OutcomeRejected = "rejected"
	// OutcomeUnchanged: training reproduced the serving champion
	// byte-for-byte; nothing to evaluate.
	OutcomeUnchanged = "unchanged"
	// OutcomeFailed: a stage exhausted its retry budget. Consecutive
	// failures feed the circuit breaker.
	OutcomeFailed = "failed"
	// outcomeApproved marks an evaluated record whose gate decision
	// passed; the cycle still has promotion left to do.
	outcomeApproved = "approved"
)

// Record is one journal line: a completed state transition of the
// autopilot's cycle machine.
type Record struct {
	// Seq is the record's position in the journal, starting at 1.
	Seq int `json:"seq"`
	// At is when the transition was journaled.
	At time.Time `json:"at"`
	// Cycle numbers the retraining cycle the record belongs to (0 for
	// cycle-independent records: paused, resumed, breaker-*).
	Cycle int `json:"cycle,omitempty"`
	// State is the transition reached (cycle-start, published, ...).
	State string `json:"state"`
	// Entry is the registry entry the cycle produced, once known.
	Entry string `json:"entry,omitempty"`
	// Outcome qualifies evaluated and cycle-done records.
	Outcome string `json:"outcome,omitempty"`
	// Note carries human context: gate reasons, failure errors, pause
	// reasons.
	Note string `json:"note,omitempty"`
	// Baseline is the serving traffic watermark (total verdicts) at
	// cycle-start — the reference the next trigger measures against.
	Baseline uint64 `json:"baseline,omitempty"`
}

// journal is the append-only transition log, read and written through
// registry.ReadJSONL and AppendJSONL. Appends are synced before they
// are acknowledged; a final line a crash cut short is skipped on replay,
// and the next append starts past it.
type journal struct {
	path string

	mu   sync.Mutex
	recs []Record
	seq  int
}

// openJournal opens (creating if needed) the journal under dir.
func openJournal(dir string) (*journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("autopilot: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("autopilot: creating state dir: %w", err)
	}
	j := &journal{path: filepath.Join(dir, journalFile)}
	recs, err := registry.ReadJSONL[Record](j.path)
	if err != nil {
		return nil, fmt.Errorf("autopilot: reading journal: %w", err)
	}
	j.recs = recs
	if len(recs) > 0 {
		j.seq = recs[len(recs)-1].Seq
	}
	return j, nil
}

// append commits one transition. The fault point before the write is
// the per-transition kill-before-journal crash site: a test arming
// "autopilot/journal/<state>" kills the controller after the state's
// side effect but before the journal admits it happened.
func (j *journal) append(rec Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec.Seq = j.seq + 1
	rec.At = time.Now().UTC()
	if err := faultinject.Step("autopilot/journal/" + rec.State); err != nil {
		return fmt.Errorf("autopilot: journaling %s: %w", rec.State, err)
	}
	if err := registry.AppendJSONL(j.path, rec); err != nil {
		return fmt.Errorf("autopilot: appending %s record: %w", rec.State, err)
	}
	j.seq = rec.Seq
	j.recs = append(j.recs, rec)
	return nil
}

// records returns a copy of the committed history, oldest first.
func (j *journal) records() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Record, len(j.recs))
	copy(out, j.recs)
	return out
}

// resumePoint describes where an interrupted cycle stopped: the last
// transition the journal admits, from which recovery re-drives the
// rest of the cycle.
type resumePoint struct {
	cycle   int
	state   string // last journaled cycle state
	entry   string
	outcome string // evaluated verdict, when state is evaluated
	note    string
}

// recovered is everything a restarting controller learns from its
// journal: where to pick up, whether it was paused, how close the
// breaker is to tripping, and the lifetime tallies.
type recovered struct {
	nextCycle      int
	paused         bool
	pauseReason    string
	consecFailures int
	incomplete     *resumePoint
	counts         CycleCounts
	lastEntry      string
	lastOutcome    string
	baseline       uint64
}

// analyze replays the journal into the controller's starting state.
func (j *journal) analyze() recovered {
	r := recovered{nextCycle: 1}
	var open *resumePoint
	for _, rec := range j.records() {
		switch rec.State {
		case statePaused:
			r.paused, r.pauseReason = true, rec.Note
		case stateResumed:
			r.paused, r.pauseReason = false, ""
			r.consecFailures = 0
		case stateBreakerOpen, stateBreakerClosed:
			// Informational: breaker state is derived from the failure
			// run-length, which resumed already resets.
		case stateCycleStart:
			open = &resumePoint{cycle: rec.Cycle, state: rec.State}
			r.baseline = rec.Baseline
			if rec.Cycle >= r.nextCycle {
				r.nextCycle = rec.Cycle + 1
			}
			r.counts.Started++
		case stateCycleDone:
			open = nil
			if rec.Cycle >= r.nextCycle {
				r.nextCycle = rec.Cycle + 1
			}
			r.lastOutcome = rec.Outcome
			if rec.Entry != "" {
				r.lastEntry = rec.Entry
			}
			switch rec.Outcome {
			case OutcomePromoted:
				r.counts.Promoted++
				r.consecFailures = 0
			case OutcomeRejected:
				r.counts.Rejected++
				r.consecFailures = 0
			case OutcomeUnchanged:
				r.counts.Unchanged++
				r.consecFailures = 0
			case OutcomeFailed:
				r.counts.Failed++
				r.consecFailures++
			}
		default:
			if open != nil && rec.Cycle == open.cycle {
				open.state = rec.State
				if rec.Entry != "" {
					open.entry = rec.Entry
				}
				if rec.State == stateEvaluated {
					open.outcome = rec.Outcome
				}
				open.note = rec.Note
			}
		}
	}
	r.incomplete = open
	return r
}
