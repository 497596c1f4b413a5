// Package autopilot closes the serve→retrain→shadow→promote loop: a
// supervised controller that watches serving traffic, retrains off the
// request path when enough new evidence has accumulated, publishes the
// candidate into the model registry with provenance, shadow-evaluates
// it as a canary against live traffic, and promotes it only when the
// registry's fail-closed gate approves.
//
// The controller is crash-safe by construction. Every state transition
// is recorded in an append-only journal (autopilot.jsonl under the
// state directory) using written-last commit: the side effect lands
// first, the journal admits it second. A controller killed at any point
// resumes exactly where it stopped — the journal names the last
// completed transition, and every remaining stage is idempotent
// (publish is content-addressed, promotion checks the current pointer
// before repointing, reload converges on the pointer). Transient stage
// failures are retried with exponential backoff and deterministic
// jitter under a per-stage budget; cycles that still fail feed a
// circuit breaker that, after Config.BreakerThreshold consecutive
// failures, stops retraining entirely and degrades to champion-only
// serving until an operator resumes it (POST /v1/autopilot/resume).
//
// The package deliberately does not import internal/serve: the serving
// side is the small Serving interface, satisfied structurally by
// serve.Server, so the dependency points the same way as the data flow.
package autopilot

import (
	"context"
	"errors"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Serving is what the autopilot needs from the serving subsystem:
// traffic volume for the retrain trigger, shadow-canary control, and a
// model reload after promotion. serve.Server satisfies it.
type Serving interface {
	// TrafficStats reports cumulative scored verdict windows and how many
	// were malicious, since the serving process started.
	TrafficStats() (verdicts, malicious uint64)
	// StartShadow begins shadow evaluation of a registry entry against
	// live traffic.
	StartShadow(entry string) error
	// ShadowComparison snapshots the active shadow evaluation's
	// accumulated evidence; ok is false when none is running.
	ShadowComparison() (cmp registry.Comparison, ok bool)
	// StopShadow ends any active shadow evaluation, reporting whether
	// one was running.
	StopShadow() bool
	// Reload re-reads the registry's current entry for new sessions.
	Reload() error
}

// Trainer produces candidate model bundles. Train is called off the
// serving path and may be slow; it must honour ctx cancellation at
// least between major phases.
type Trainer interface {
	Train(ctx context.Context) (bundle []byte, info registry.TrainInfo, err error)
}

// TrainerFunc adapts a function to the Trainer interface.
type TrainerFunc func(ctx context.Context) ([]byte, registry.TrainInfo, error)

// Train implements Trainer.
func (f TrainerFunc) Train(ctx context.Context) ([]byte, registry.TrainInfo, error) {
	return f(ctx)
}

// Sentinel errors for cycle admission.
var (
	// ErrBusy: a cycle is already executing.
	ErrBusy = errors.New("autopilot: cycle already running")
	// ErrPaused: the controller is operator-paused.
	ErrPaused = errors.New("autopilot: paused")
	// ErrBreakerOpen: the circuit breaker has tripped; resume to reset.
	ErrBreakerOpen = errors.New("autopilot: circuit breaker open")
	// errStopped: the controller is shutting down mid-cycle.
	errStopped = errors.New("autopilot: stopped")
)

// Config parameterises a Controller. Store, Trainer and StateDir are
// mandatory; the zero value of every knob selects a production-safe
// default.
type Config struct {
	// Store is the model registry candidates are published into and
	// promoted through.
	Store *registry.Store
	// Trainer produces candidate bundles.
	Trainer Trainer
	// Gate is the promotion policy (zero value = registry defaults). The
	// controller also reads its effective MinEvents as the shadow
	// evidence target.
	Gate registry.Gate
	// StateDir holds the journal. A restarted controller pointed at the
	// same directory resumes any interrupted cycle.
	StateDir string
	// Interval is the trigger-check period (default 1m).
	Interval time.Duration
	// TriggerEvents is how many new verdict windows must accumulate
	// since the last cycle before retraining triggers (default 5000).
	TriggerEvents uint64
	// ShadowTimeout bounds how long a cycle waits for shadow evidence to
	// reach the gate's MinEvents before judging on what it has — the
	// gate fails closed on thin evidence (default 10m).
	ShadowTimeout time.Duration
	// StageRetries is how many times a failed stage is retried beyond
	// its first attempt (default 2, so 3 attempts per stage).
	StageRetries int
	// BackoffBase is the first retry's backoff (default 500ms); each
	// further attempt doubles it, up to 30s. Jitter is deterministic — a
	// hash of stage, cycle, attempt and Seed — so recovery schedules are
	// reproducible.
	BackoffBase time.Duration
	// BreakerThreshold is how many consecutive failed cycles trip the
	// circuit breaker (default 3).
	BreakerThreshold int
	// Seed perturbs the deterministic backoff jitter.
	Seed int64
	// Logger receives operational logs (default slog.Default()).
	Logger *slog.Logger
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Minute
	}
	if c.TriggerEvents == 0 {
		c.TriggerEvents = 5000
	}
	if c.ShadowTimeout <= 0 {
		c.ShadowTimeout = 10 * time.Minute
	}
	if c.StageRetries < 0 {
		c.StageRetries = 0
	} else if c.StageRetries == 0 {
		c.StageRetries = 2
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// CycleCounts tallies completed cycles by outcome.
type CycleCounts struct {
	Started   int `json:"started"`
	Promoted  int `json:"promoted"`
	Rejected  int `json:"rejected"`
	Unchanged int `json:"unchanged"`
	Failed    int `json:"failed"`
}

// Status is the controller's externally visible state, the body of
// GET /v1/autopilot.
type Status struct {
	// Phase is what the controller is doing right now: idle, training,
	// publishing, shadowing, promoting, paused or breaker-open.
	Phase string `json:"phase"`
	// Paused and PauseReason report operator pause state.
	Paused      bool   `json:"paused"`
	PauseReason string `json:"pause_reason,omitempty"`
	// BreakerOpen reports the circuit breaker; ConsecutiveFailures is
	// how close it is to (or past) BreakerThreshold.
	BreakerOpen         bool `json:"breaker_open"`
	ConsecutiveFailures int  `json:"consecutive_failures"`
	BreakerThreshold    int  `json:"breaker_threshold"`
	// Cycle is the highest cycle number started so far.
	Cycle int `json:"cycle"`
	// Cycles tallies completed cycles by outcome.
	Cycles CycleCounts `json:"cycles"`
	// LastEntry and LastOutcome describe the most recent completed
	// cycle; LastError carries its failure, if any.
	LastEntry   string `json:"last_entry,omitempty"`
	LastOutcome string `json:"last_outcome,omitempty"`
	LastError   string `json:"last_error,omitempty"`
	// TriggerEvents and SinceBaseline show retrain-trigger progress:
	// the next cycle starts when SinceBaseline reaches TriggerEvents.
	TriggerEvents uint64 `json:"trigger_events"`
	SinceBaseline uint64 `json:"verdicts_since_baseline"`
	// Resuming reports an interrupted cycle recovered from the journal
	// and not yet re-driven to completion.
	Resuming bool `json:"resuming,omitempty"`
}

// Controller is the retraining autopilot. Create with New, attach the
// serving side with Bind, then Start. Stop is graceful: an executing
// cycle finishes its current stage wait and aborts cleanly (the journal
// lets the next Start resume it).
type Controller struct {
	cfg Config
	jrn *journal

	mu         sync.Mutex
	srv        Serving
	started    bool
	phase      string
	running    bool
	paused     bool
	pauseRsn   string
	consecFail int
	breaker    bool
	nextCycle  int
	lastCycle  int
	baseline   uint64
	counts     CycleCounts
	lastEntry  string
	lastOut    string
	lastErr    string
	incomplete *resumePoint

	stop     chan struct{}
	done     chan struct{}
	kick     chan struct{}
	stopOnce sync.Once
	ctx      context.Context // cancelled by Stop; handed to the Trainer
	cancel   context.CancelFunc

	// cycleTrace is the executing cycle's trace ID, stamped on every
	// journal transition's flight entry so one trace follows a retrain
	// cycle end to end. Atomic because journalAppend runs both with and
	// without c.mu held.
	cycleTrace atomic.Pointer[string]
}

// journalAppend commits one journal transition and mirrors it into the
// telemetry flight recorder (kind "autopilot"), stamped with the
// executing cycle's trace ID when one is set.
func (c *Controller) journalAppend(rec Record) error {
	err := c.jrn.append(rec)
	var trace string
	if p := c.cycleTrace.Load(); p != nil {
		trace = *p
	}
	attrs := map[string]string{}
	if rec.Cycle != 0 {
		attrs["cycle"] = strconv.Itoa(rec.Cycle)
	}
	if rec.Entry != "" {
		attrs["entry"] = rec.Entry
	}
	if rec.Outcome != "" {
		attrs["outcome"] = rec.Outcome
	}
	if rec.Note != "" {
		attrs["note"] = rec.Note
	}
	if err != nil {
		attrs["journal_error"] = err.Error()
	}
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind: "autopilot", Name: rec.State, Trace: trace, Attrs: attrs,
	})
	return err
}

// New opens (or resumes) a controller over the journal in
// cfg.StateDir. The returned controller has recovered its pause state,
// breaker run-length, cycle numbering and any interrupted cycle, but
// runs nothing until Start (or RunCycle).
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Store == nil {
		return nil, errors.New("autopilot: Config.Store is required")
	}
	if cfg.Trainer == nil {
		return nil, errors.New("autopilot: Config.Trainer is required")
	}
	jrn, err := openJournal(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	r := jrn.analyze()
	c := &Controller{
		cfg:        cfg,
		jrn:        jrn,
		phase:      "idle",
		paused:     r.paused,
		pauseRsn:   r.pauseReason,
		consecFail: r.consecFailures,
		breaker:    r.consecFailures >= cfg.BreakerThreshold,
		nextCycle:  r.nextCycle,
		lastCycle:  r.nextCycle - 1,
		baseline:   r.baseline,
		counts:     r.counts,
		lastEntry:  r.lastEntry,
		lastOut:    r.lastOutcome,
		incomplete: r.incomplete,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		kick:       make(chan struct{}, 1),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	setGauge(mPausedGauge, c.paused)
	setGauge(mBreakerOpen, c.breaker)
	if c.incomplete != nil {
		cfg.Logger.Info("autopilot: journal holds an interrupted cycle",
			"cycle", c.incomplete.cycle, "state", c.incomplete.state, "entry", c.incomplete.entry)
	}
	return c, nil
}

func setGauge(g interface{ Set(float64) }, on bool) {
	if on {
		g.Set(1)
	} else {
		g.Set(0)
	}
}

// Bind attaches the serving side. It must be called before Start; it is
// separate from New because the server's Config needs the controller
// (for the /v1/autopilot endpoints) before the server exists.
func (c *Controller) Bind(s Serving) {
	c.mu.Lock()
	c.srv = s
	c.mu.Unlock()
}

// Start launches the supervision loop: resume any interrupted cycle
// immediately, then retrain whenever the traffic trigger fires.
func (c *Controller) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srv == nil {
		return errors.New("autopilot: Start before Bind")
	}
	if c.started {
		return errors.New("autopilot: already started")
	}
	c.started = true
	go c.loop()
	return nil
}

// Stop ends the supervision loop, cancels any in-flight training, and
// aborts an executing cycle at its next wait point. The journal keeps
// the cycle resumable.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() {
		close(c.stop)
		c.cancel()
	})
	c.mu.Lock()
	started := c.started
	c.mu.Unlock()
	if started {
		<-c.done
	}
}

// Kick requests an immediate trigger check without waiting for the next
// interval tick. Non-blocking.
func (c *Controller) Kick() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

func (c *Controller) loop() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	// An interrupted cycle resumes before any trigger arithmetic: the
	// journal says work was mid-flight.
	if c.pending() {
		c.runLogged()
	}
	for {
		select {
		case <-c.stop:
			return
		case <-c.kick:
		case <-tick.C:
		}
		if c.pending() || c.triggered() {
			c.runLogged()
		}
	}
}

// pending reports an unresumed interrupted cycle, gated on pause and
// breaker state like any other run.
func (c *Controller) pending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incomplete != nil && !c.paused && !c.breaker
}

// triggered reports whether enough new traffic has accumulated since
// the last cycle's baseline to justify retraining.
func (c *Controller) triggered() bool {
	c.mu.Lock()
	if c.paused || c.breaker || c.running {
		c.mu.Unlock()
		return false
	}
	srv := c.srv
	base := c.baseline
	c.mu.Unlock()
	verdicts, _ := srv.TrafficStats()
	if verdicts < base {
		// The serving process restarted and its counters reset; re-anchor
		// rather than waiting for them to catch up to a stale watermark.
		c.mu.Lock()
		c.baseline = verdicts
		c.mu.Unlock()
		return false
	}
	return verdicts-base >= c.cfg.TriggerEvents
}

func (c *Controller) runLogged() {
	if _, err := c.RunCycle(); err != nil &&
		!errors.Is(err, ErrBusy) && !errors.Is(err, ErrPaused) &&
		!errors.Is(err, ErrBreakerOpen) && !errors.Is(err, errStopped) {
		c.cfg.Logger.Error("autopilot cycle failed", "error", err)
	}
}

// Pause stops the controller from starting cycles until Resume. The
// pause survives restarts (it is journaled). An executing cycle is not
// interrupted — pause gates admission, not execution.
func (c *Controller) Pause(reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.paused {
		c.pauseRsn = reason
		return nil
	}
	if err := c.journalAppend(Record{State: statePaused, Note: reason}); err != nil {
		return err
	}
	c.paused, c.pauseRsn = true, reason
	setGauge(mPausedGauge, true)
	c.cfg.Logger.Info("autopilot paused", "reason", reason)
	return nil
}

// Resume lifts a pause and resets the circuit breaker: the operator has
// looked, so the failure run-length starts over.
func (c *Controller) Resume() error {
	c.mu.Lock()
	if !c.paused && !c.breaker && c.consecFail == 0 {
		c.mu.Unlock()
		return nil
	}
	if err := c.journalAppend(Record{State: stateResumed}); err != nil {
		c.mu.Unlock()
		return err
	}
	wasBreaker := c.breaker
	c.paused, c.pauseRsn = false, ""
	c.consecFail = 0
	c.breaker = false
	if wasBreaker {
		// Best-effort informational record; the resumed record above
		// already reset the derived breaker state.
		if err := c.journalAppend(Record{State: stateBreakerClosed}); err != nil {
			c.cfg.Logger.Warn("autopilot: journaling breaker-closed", "error", err)
		}
	}
	c.mu.Unlock()
	setGauge(mPausedGauge, false)
	setGauge(mBreakerOpen, false)
	c.cfg.Logger.Info("autopilot resumed", "breaker_was_open", wasBreaker)
	c.Kick()
	return nil
}

// Snapshot returns the controller's typed status.
func (c *Controller) Snapshot() Status {
	c.mu.Lock()
	st := Status{
		Phase:               c.phase,
		Paused:              c.paused,
		PauseReason:         c.pauseRsn,
		BreakerOpen:         c.breaker,
		ConsecutiveFailures: c.consecFail,
		BreakerThreshold:    c.cfg.BreakerThreshold,
		Cycle:               c.lastCycle,
		Cycles:              c.counts,
		LastEntry:           c.lastEntry,
		LastOutcome:         c.lastOut,
		LastError:           c.lastErr,
		TriggerEvents:       c.cfg.TriggerEvents,
		Resuming:            c.incomplete != nil,
	}
	srv := c.srv
	base := c.baseline
	running := c.running
	c.mu.Unlock()
	switch {
	case st.Paused:
		st.Phase = "paused"
	case st.BreakerOpen:
		st.Phase = "breaker-open"
	}
	if srv != nil && !running {
		if verdicts, _ := srv.TrafficStats(); verdicts >= base {
			st.SinceBaseline = verdicts - base
		}
	}
	return st
}

// Status returns the status as an opaque value — the shape the serve
// package's Autopilot interface wants without importing this package.
func (c *Controller) Status() any { return c.Snapshot() }
