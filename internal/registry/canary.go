package registry

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Comparison is the accumulated champion/challenger shadow evidence: how
// much traffic the challenger has replayed and how its verdicts compare
// to the champion's, with the champion's verdicts as reference labels.
// In the Confusion, "actual" is the champion calling a window benign and
// "predicted" is the challenger agreeing — so TPR is the challenger's
// agreement rate on champion-benign windows (low TPR = new false
// alarms), and FPR is the rate at which the challenger clears windows
// the champion flagged (high FPR = missed detections).
type Comparison struct {
	// ChallengerID is the registry entry under shadow evaluation.
	ChallengerID string `json:"challenger_id"`
	// StartedAt is when shadowing began.
	StartedAt time.Time `json:"started_at"`
	// Events counts events replayed against the challenger; Windows
	// counts champion/challenger verdict pairs compared.
	Events  int `json:"events"`
	Windows int `json:"windows"`
	// Dropped counts batches the bounded shadow queue rejected (or that
	// arrived after the canary stopped); DroppedEvents counts the events
	// those batches carried — the evidence the comparison never saw.
	// Diverged counts batches whose champion and challenger window
	// counts disagreed (never expected when the windows match).
	Dropped       int `json:"dropped"`
	DroppedEvents int `json:"dropped_events"`
	Diverged      int `json:"diverged"`
	// Confusion is the verdict-agreement matrix.
	Confusion metrics.Confusion `json:"confusion"`
}

// Summary derives the agreement measurements (ACC, PPV, TPR, TNR, NPV,
// F1) from the comparison's confusion matrix.
func (c Comparison) Summary() metrics.Summary { return c.Confusion.Summary() }

// shadowBatch is one unit of shadow work: a scored batch's events plus
// the champion's verdicts for the windows that batch completed, or,
// with forget set, the release of a session's challenger detector.
type shadowBatch struct {
	session   string
	modules   *trace.ModuleMap
	events    []trace.Event
	malicious []bool // champion verdicts, in window order
	forget    bool
}

// Canary shadow-evaluates one challenger model against live champion
// traffic. Offer is non-blocking and never touches the champion scoring
// path: batches are copied onto a bounded queue and replayed against
// per-session challenger detectors by a single background goroutine, so
// champion verdicts are byte-identical with a canary attached or not.
// Per-session event order is preserved (one FIFO queue, one consumer),
// which keeps the challenger's verdict stream deterministic too.
type Canary struct {
	id  string
	mon *core.Monitor

	queue chan shadowBatch
	stop  chan struct{}
	done  chan struct{}

	mu   sync.Mutex
	dets map[string]*core.StreamDetector
	cmp  Comparison
	lag  int // events queued but not yet replayed, mirrors mShadowLag
}

// NewCanary starts shadow evaluation of the challenger monitor published
// as registry entry id. queueDepth bounds the shadow queue in batches
// (minimum 1); when the queue is full, Offer drops the batch and counts
// it rather than blocking the serving path.
func NewCanary(id string, mon *core.Monitor, queueDepth int) (*Canary, error) {
	if mon == nil {
		return nil, errors.New("registry: nil challenger monitor")
	}
	if queueDepth < 1 {
		queueDepth = 256
	}
	c := &Canary{
		id:    id,
		mon:   mon,
		queue: make(chan shadowBatch, queueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		dets:  make(map[string]*core.StreamDetector),
		cmp:   Comparison{ChallengerID: id, StartedAt: time.Now().UTC()},
	}
	go c.run()
	return c, nil
}

// ID returns the challenger's registry entry id.
func (c *Canary) ID() string { return c.id }

// Offer enqueues one scored batch for shadow replay: the events the
// champion scored and the champion's malicious flag per completed
// window. session keys the challenger stream the batch continues; a
// caller whose session IDs can be reused keys each session instance
// apart. It never blocks — a full queue drops the batch and reports
// false. The caller must not mutate events after offering.
func (c *Canary) Offer(session string, modules *trace.ModuleMap, events []trace.Event, malicious []bool) bool {
	b := shadowBatch{session: session, modules: modules, events: events, malicious: malicious}
	select {
	case <-c.stop:
		c.dropOffer(len(events))
		return false
	default:
	}
	select {
	case c.queue <- b:
		c.mu.Lock()
		c.lag += len(events)
		c.mu.Unlock()
		mShadowLag.Add(float64(len(events)))
		return true
	default:
		c.dropOffer(len(events))
		return false
	}
}

// Forget releases the challenger detector keyed session once every
// batch offered under that key so far has replayed: a session that
// leaves the server (deleted, exported or evicted) holds no detector.
// Forget waits for room on the shadow queue, since a dropped release
// would leak; a stopped canary has nothing to release.
func (c *Canary) Forget(session string) {
	select {
	case c.queue <- shadowBatch{session: session, forget: true}:
	case <-c.stop:
	}
}

// dropOffer accounts one rejected offer — a full queue or a stopped
// canary — in the comparison and the telemetry counters.
func (c *Canary) dropOffer(events int) {
	c.mu.Lock()
	c.cmp.Dropped++
	c.cmp.DroppedEvents += events
	c.mu.Unlock()
	mShadowDropped.Inc()
	mShadowDroppedEvents.Add(uint64(events))
}

// run is the single shadow worker: it replays queued batches in arrival
// order against per-session challenger detectors, folds the verdict
// pairs into the comparison and releases the detectors of sessions that
// left.
func (c *Canary) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			return
		case b := <-c.queue:
			if b.forget {
				c.mu.Lock()
				delete(c.dets, b.session)
				c.mu.Unlock()
				continue
			}
			c.replay(b)
		}
	}
}

// replay scores one batch with the challenger and compares verdicts.
func (c *Canary) replay(b shadowBatch) {
	c.mu.Lock()
	det, ok := c.dets[b.session]
	c.mu.Unlock()
	if !ok {
		d, err := c.mon.Stream(b.modules)
		if err != nil {
			// A module map the challenger cannot stream over: count the
			// batch as divergence and move on.
			c.finish(b, nil, true)
			return
		}
		det = d
		c.mu.Lock()
		c.dets[b.session] = det
		c.mu.Unlock()
	}
	var verdicts []bool
	diverged := false
	for _, e := range b.events {
		d, err := det.Feed(e)
		var evErr *core.EventError
		if err != nil && !errors.As(err, &evErr) {
			diverged = true
			break
		}
		if d != nil {
			verdicts = append(verdicts, d.Malicious)
		}
	}
	c.finish(b, verdicts, diverged)
}

// finish folds one replayed batch into the comparison and releases its
// lag accounting.
func (c *Canary) finish(b shadowBatch, verdicts []bool, diverged bool) {
	n := len(b.malicious)
	if len(verdicts) != n {
		diverged = true
		if len(verdicts) < n {
			n = len(verdicts)
		}
	}
	c.mu.Lock()
	c.cmp.Events += len(b.events)
	for i := 0; i < n; i++ {
		c.cmp.Confusion.Add(!b.malicious[i], !verdicts[i])
		c.cmp.Windows++
	}
	if diverged {
		c.cmp.Diverged++
	}
	c.lag -= len(b.events)
	c.mu.Unlock()
	mShadowEvents.Add(uint64(len(b.events)))
	mShadowLag.Add(-float64(len(b.events)))
	if diverged {
		mShadowDiverged.Inc()
	}
}

// Status snapshots the accumulated comparison.
func (c *Canary) Status() Comparison {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cmp
}

// Lag reports the events queued for shadow replay but not yet scored.
func (c *Canary) Lag() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lag
}

// Sync blocks until every batch offered so far has been replayed (or the
// canary stopped). Tests and pre-promotion checks use it to read a
// settled comparison.
func (c *Canary) Sync() {
	for {
		select {
		case <-c.done:
			return
		default:
		}
		c.mu.Lock()
		settled := c.lag == 0 && len(c.queue) == 0
		c.mu.Unlock()
		if settled {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop ends shadow evaluation. Queued but unreplayed batches are
// discarded; their lag accounting is released. Stop is idempotent.
func (c *Canary) Stop() {
	c.mu.Lock()
	select {
	case <-c.stop:
		c.mu.Unlock()
		return
	default:
		close(c.stop)
	}
	c.mu.Unlock()
	<-c.done
	// Drain what the worker never got to and release its lag.
	for {
		select {
		case b := <-c.queue:
			c.mu.Lock()
			c.lag -= len(b.events)
			c.mu.Unlock()
			mShadowLag.Add(-float64(len(b.events)))
		default:
			return
		}
	}
}
