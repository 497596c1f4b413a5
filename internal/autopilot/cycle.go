package autopilot

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Cycle stages, the resume granularity: the journal's last record maps
// to the stage recovery re-enters.
const (
	stageTrain   = "train"
	stageShadow  = "shadow"
	stagePromote = "promote"
	stageFinish  = "finish"
)

// Result summarises one completed (or failed) cycle.
type Result struct {
	// Cycle is the cycle number.
	Cycle int `json:"cycle"`
	// Outcome is the cycle-done outcome (promoted, rejected, unchanged,
	// failed).
	Outcome string `json:"outcome"`
	// Entry is the candidate registry entry, once one was published.
	Entry string `json:"entry,omitempty"`
	// Decision is the gate's verdict, when the cycle reached evaluation.
	Decision *registry.Decision `json:"decision,omitempty"`
}

// RunCycle executes one retraining cycle synchronously: train → publish
// → shadow → evaluate → promote. If the journal holds an interrupted
// cycle it is resumed at the stage after its last journaled transition
// instead of starting fresh. The supervision loop calls this on
// trigger; tests and operators may call it directly.
func (c *Controller) RunCycle() (Result, error) {
	c.mu.Lock()
	switch {
	case c.srv == nil:
		c.mu.Unlock()
		return Result{}, errors.New("autopilot: RunCycle before Bind")
	case c.running:
		c.mu.Unlock()
		return Result{}, ErrBusy
	case c.paused:
		c.mu.Unlock()
		return Result{}, ErrPaused
	case c.breaker:
		c.mu.Unlock()
		return Result{}, ErrBreakerOpen
	}
	rp := c.incomplete
	c.incomplete = nil
	c.running = true
	c.mu.Unlock()
	// One trace ID per cycle execution: every journal transition, span
	// and flight entry the cycle produces carries it, so a promotion (or
	// a breaker trip) is reconstructible as a single trace.
	trace := telemetry.NewTraceID().String()
	c.cycleTrace.Store(&trace)
	defer func() {
		c.cycleTrace.Store(nil)
		c.mu.Lock()
		c.running = false
		c.phase = "idle"
		c.mu.Unlock()
	}()

	res, err := c.runCycle(rp)
	switch {
	case err == nil:
	case errors.Is(err, errStopped):
		// Shutdown mid-cycle: the journal stays mid-cycle, so the next
		// Start (this process or the next one) resumes it.
		c.restoreIncomplete()
	default:
		res.Outcome = OutcomeFailed
		c.failCycle(res.Cycle, res.Entry, err)
	}
	return res, err
}

// restoreIncomplete re-derives the interrupted-cycle marker from the
// journal after an aborted run.
func (c *Controller) restoreIncomplete() {
	r := c.jrn.analyze()
	c.mu.Lock()
	c.incomplete = r.incomplete
	c.mu.Unlock()
}

func (c *Controller) runCycle(rp *resumePoint) (Result, error) {
	res := Result{}
	var entry string
	stage := stageTrain
	var resumeNote string
	if rp != nil {
		res.Cycle = rp.cycle
		entry = rp.entry
		resumeNote = rp.note
		mResumes.Inc()
		c.cfg.Logger.Info("autopilot resuming interrupted cycle",
			"cycle", rp.cycle, "journaled", rp.state, "entry", rp.entry)
		switch rp.state {
		case stateCycleStart:
			// Nothing journaled past the start: re-train. Publishing is
			// content-addressed, so a publish that landed before the crash
			// is simply found again.
			stage = stageTrain
		case statePublished, stateShadowStarted:
			// Shadow state died with the process; (re)start it.
			stage = stageShadow
		case stateEvaluated:
			if rp.outcome == outcomeApproved {
				stage = stagePromote
			} else {
				stage = stageFinish
				resumeNote = rp.note
			}
		case statePromoted:
			stage = stageFinish
		default:
			return res, fmt.Errorf("autopilot: journal resume from unknown state %q", rp.state)
		}
		c.mu.Lock()
		c.lastCycle = rp.cycle
		c.mu.Unlock()
	} else {
		c.mu.Lock()
		res.Cycle = c.nextCycle
		c.nextCycle++
		c.lastCycle = res.Cycle
		c.mu.Unlock()
		verdicts, _ := c.serving().TrafficStats()
		if err := c.journalAppend(Record{Cycle: res.Cycle, State: stateCycleStart, Baseline: verdicts}); err != nil {
			return res, err
		}
		c.mu.Lock()
		c.baseline = verdicts
		c.counts.Started++
		c.mu.Unlock()
	}

	if stage == stageTrain {
		c.setPhase("training")
		var blob []byte
		var info registry.TrainInfo
		if err := c.retryStage("train", res.Cycle, func() error {
			b, i, err := c.cfg.Trainer.Train(c.ctx)
			if err != nil {
				return err
			}
			blob, info = b, i
			return nil
		}); err != nil {
			return res, err
		}
		c.setPhase("publishing")
		var man registry.Manifest
		if err := c.retryStage("publish", res.Cycle, func() error {
			m, err := c.cfg.Store.Publish(bytes.NewReader(blob), info)
			if err != nil {
				return err
			}
			man = m
			return nil
		}); err != nil {
			return res, err
		}
		entry = man.ID
		// A candidate that reproduces the serving champion byte-for-byte
		// has nothing to prove; the cycle ends clean without a shadow.
		if cur, ok, err := c.cfg.Store.Current(); err == nil && ok && cur.ID == entry {
			res.Entry = entry
			return c.finishCycle(res, entry, OutcomeUnchanged,
				"candidate reproduces the serving champion", nil)
		}
		if err := c.journalAppend(Record{Cycle: res.Cycle, State: statePublished, Entry: entry}); err != nil {
			return res, err
		}
		stage = stageShadow
	}
	res.Entry = entry

	var decision *registry.Decision
	if stage == stageShadow {
		c.setPhase("shadowing")
		if err := faultinject.Step("autopilot/before-shadow"); err != nil {
			return res, err
		}
		srv := c.serving()
		// Clear any stale canary — a crashed run's, or an operator's —
		// before starting this cycle's.
		srv.StopShadow()
		if err := c.retryStage("shadow-start", res.Cycle, func() error {
			return srv.StartShadow(entry)
		}); err != nil {
			return res, err
		}
		if err := c.journalAppend(Record{Cycle: res.Cycle, State: stateShadowStarted, Entry: entry}); err != nil {
			srv.StopShadow()
			return res, err
		}
		cmp, err := c.awaitEvidence()
		if err != nil {
			srv.StopShadow()
			return res, err
		}
		d := c.cfg.Gate.Decide(cmp)
		decision = &d
		out, note := outcomeApproved, fmt.Sprintf("shadowed %d events over %d windows", cmp.Events, cmp.Windows)
		if !d.OK {
			out, note = OutcomeRejected, strings.Join(d.Reasons, "; ")
		}
		if err := c.journalAppend(Record{Cycle: res.Cycle, State: stateEvaluated, Entry: entry, Outcome: out, Note: note}); err != nil {
			srv.StopShadow()
			return res, err
		}
		srv.StopShadow()
		if !d.OK {
			return c.finishCycle(res, entry, OutcomeRejected, note, decision)
		}
		resumeNote = note
		stage = stagePromote
	}

	if stage == stagePromote {
		c.setPhase("promoting")
		if err := c.retryStage("promote", res.Cycle, func() error {
			// Idempotent re-drive: a crash after the pointer moved but
			// before the promoted record landed must not repoint again.
			cur, ok, err := c.cfg.Store.Current()
			if err != nil {
				return err
			}
			if !ok || cur.ID != entry {
				reason := fmt.Sprintf("autopilot cycle %d: %s", res.Cycle, resumeNote)
				if _, err := c.cfg.Store.Promote(entry, reason); err != nil {
					return err
				}
			}
			if err := faultinject.Step("autopilot/mid-promotion"); err != nil {
				return err
			}
			return c.serving().Reload()
		}); err != nil {
			return res, err
		}
		if err := c.journalAppend(Record{Cycle: res.Cycle, State: statePromoted, Entry: entry}); err != nil {
			return res, err
		}
		return c.finishCycle(res, entry, OutcomePromoted, resumeNote, decision)
	}

	// stageFinish: the journal already admits the terminal transition;
	// only the cycle-done record is missing.
	out := OutcomePromoted
	if rp != nil && rp.state == stateEvaluated {
		out = OutcomeRejected
	}
	if out == OutcomePromoted {
		// Converge serving on the journaled promotion regardless of where
		// exactly the crash hit; Reload on an already-current entry is a
		// no-op swap.
		if err := c.serving().Reload(); err != nil {
			return res, err
		}
	}
	return c.finishCycle(res, entry, out, resumeNote, nil)
}

// finishCycle journals cycle-done and folds the outcome into the
// controller's tallies. Any clean outcome resets the breaker run.
func (c *Controller) finishCycle(res Result, entry, outcome, note string, d *registry.Decision) (Result, error) {
	res.Entry = entry
	res.Outcome = outcome
	res.Decision = d
	if err := c.journalAppend(Record{Cycle: res.Cycle, State: stateCycleDone, Entry: entry, Outcome: outcome, Note: note}); err != nil {
		return res, err
	}
	mCycles.With(outcome).Inc()
	c.mu.Lock()
	switch outcome {
	case OutcomePromoted:
		c.counts.Promoted++
	case OutcomeRejected:
		c.counts.Rejected++
	case OutcomeUnchanged:
		c.counts.Unchanged++
	}
	c.consecFail = 0
	c.lastEntry = entry
	c.lastOut = outcome
	c.lastErr = ""
	c.mu.Unlock()
	c.cfg.Logger.Info("autopilot cycle complete",
		"cycle", res.Cycle, "outcome", outcome, "entry", entry, "note", note)
	return res, nil
}

// failCycle records a failed cycle and advances the circuit breaker.
func (c *Controller) failCycle(cycle int, entry string, cause error) {
	note := cause.Error()
	if err := c.journalAppend(Record{Cycle: cycle, State: stateCycleDone, Outcome: OutcomeFailed, Entry: entry, Note: note}); err != nil {
		// The journal itself is failing; the cycle stays mid-flight on
		// disk and will be resumed rather than counted.
		c.cfg.Logger.Error("autopilot: journaling failed cycle", "cycle", cycle, "error", err)
	}
	mCycles.With(OutcomeFailed).Inc()
	c.mu.Lock()
	c.counts.Failed++
	c.consecFail++
	c.lastOut = OutcomeFailed
	c.lastErr = note
	trip := !c.breaker && c.consecFail >= c.cfg.BreakerThreshold
	if trip {
		c.breaker = true
	}
	n := c.consecFail
	c.mu.Unlock()
	c.cfg.Logger.Error("autopilot cycle failed", "cycle", cycle, "error", note,
		"consecutive_failures", n)
	if trip {
		setGauge(mBreakerOpen, true)
		if err := c.journalAppend(Record{State: stateBreakerOpen,
			Note: fmt.Sprintf("%d consecutive failed cycles", n)}); err != nil {
			c.cfg.Logger.Warn("autopilot: journaling breaker-open", "error", err)
		}
		// The breaker opening is a capture-now moment: persist the flight
		// recorder next to the journal so the failure run's recent spans,
		// logs and transitions survive for the post-mortem.
		if path, err := telemetry.DumpFlightTo(c.cfg.StateDir, "breaker-trip"); err != nil {
			c.cfg.Logger.Warn("autopilot: writing breaker-trip flight dump", "error", err)
		} else {
			c.cfg.Logger.Info("flight recorder dumped on breaker trip", "dump", path)
		}
		c.cfg.Logger.Error("autopilot circuit breaker tripped; serving continues on champion only",
			"consecutive_failures", n, "threshold", c.cfg.BreakerThreshold)
	}
}

// shadowPoll is the evidence polling period. A test may lower it;
// nothing else sets it.
var shadowPoll = 250 * time.Millisecond

// awaitEvidence polls the shadow comparison every shadowPoll until it
// reaches the gate's effective evidence floor or the shadow timeout
// passes; the gate then judges whatever accumulated (and fails closed on
// thin evidence).
func (c *Controller) awaitEvidence() (registry.Comparison, error) {
	eff := c.cfg.Gate.Effective()
	deadline := time.Now().Add(c.cfg.ShadowTimeout)
	var last registry.Comparison
	for {
		cmp, ok := c.serving().ShadowComparison()
		if !ok {
			return last, errors.New("autopilot: shadow evaluation disappeared mid-cycle")
		}
		last = cmp
		if cmp.Events >= eff.MinEvents || time.Now().After(deadline) {
			return cmp, nil
		}
		select {
		case <-c.stop:
			return last, errStopped
		case <-time.After(shadowPoll):
		}
	}
}

// retryStage runs fn under the stage's retry budget, backing off
// exponentially with deterministic jitter between attempts.
func (c *Controller) retryStage(stage string, cycle int, fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if errors.Is(err, errStopped) {
			return err
		}
		if attempt >= c.cfg.StageRetries {
			break
		}
		d := c.backoff(stage, cycle, attempt)
		mRetries.Inc()
		c.cfg.Logger.Warn("autopilot stage failed; backing off",
			"stage", stage, "cycle", cycle, "attempt", attempt+1, "backoff", d, "error", err)
		select {
		case <-c.stop:
			return errStopped
		case <-time.After(d):
		}
	}
	return fmt.Errorf("autopilot: stage %s: %d attempts exhausted: %w",
		stage, c.cfg.StageRetries+1, err)
}

// backoffMax caps the retry backoff. A test may lower it; nothing else
// sets it.
var backoffMax = 30 * time.Second

// backoff is exponential in the attempt with deterministic jitter: the
// delay for (stage, cycle, attempt) is a pure function of those and
// Config.Seed, in [base/2, base] where base doubles per attempt up to
// backoffMax. Reproducible schedules make recovery tests and incident
// timelines exact.
func (c *Controller) backoff(stage string, cycle, attempt int) time.Duration {
	base := c.cfg.BackoffBase
	for i := 0; i < attempt && base < backoffMax; i++ {
		base *= 2
	}
	if base > backoffMax {
		base = backoffMax
	}
	span := uint64(base) / 2
	if span == 0 {
		return base
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%d", c.cfg.Seed, stage, cycle, attempt)
	return time.Duration(uint64(base)/2 + h.Sum64()%(span+1))
}

func (c *Controller) serving() Serving {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srv
}

func (c *Controller) setPhase(p string) {
	c.mu.Lock()
	c.phase = p
	c.mu.Unlock()
}
