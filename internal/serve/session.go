package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Errors surfaced by the session queue; the API layer maps them onto
// HTTP statuses (429 for a full queue, 409 for a closed session).
var (
	// ErrQueueFull reports that accepting a batch would push the
	// session's queued-event count past the configured depth.
	ErrQueueFull = errors.New("serve: session queue full")
	// ErrSessionClosed reports an ingest against a session that has been
	// deleted or is shutting down.
	ErrSessionClosed = errors.New("serve: session closed")
)

// ingestReply is the scored outcome of one batch, delivered on the
// batch's done channel.
type ingestReply struct {
	consumed int
	skipped  int
	verdicts []Verdict
	err      error
}

// ingestBatch is one client POST travelling through a session queue.
type ingestBatch struct {
	events []trace.Event
	enq    time.Time
	// trace is the originating request's trace ID; it follows the batch
	// across the queue hand-off so worker-side observations and flight
	// entries join up with the HTTP request that carried the events.
	trace string
	// done is buffered so the scoring worker never blocks on a waiter
	// that timed out and walked away.
	done chan ingestReply
}

// session is one live detection stream: a pinned detector plus a bounded
// queue of batches awaiting scoring. Batches are scored strictly in
// arrival order by a single scheduling turn at a time, so verdicts are
// deterministic regardless of the worker-pool size.
type session struct {
	id       string
	model    string
	spec     SessionSpec // retained for the session envelope
	det      *core.StreamDetector
	mm       *trace.ModuleMap
	window   int
	degraded bool
	// entry is the registry entry id the session's monitor was loaded
	// from ("" for path/preloaded models). The session envelope carries
	// it, so a revive — import, or restore after eviction or a restart —
	// rebinds the same model even after a promotion moved the registry's
	// current pointer.
	entry string
	// ringGen is the fleet ring generation stamped when the session was
	// created or last imported (0 outside a fleet) — the breadcrumb that
	// makes handoff races debuggable. Immutable once admitted.
	ringGen int64
	// stacks memoises the session's resolved stack walks for ingest
	// decoding: derived state, never checkpointed, spooled or handed off.
	stacks stackCache

	mu        sync.Mutex
	queue     []*ingestBatch
	queued    int // events across queue, bounded by Config.QueueDepth
	scheduled bool
	closed    bool
	created   time.Time
	lastUsed  time.Time
	verdicts  int
	malicious int
}

// enqueue appends a batch, enforcing the event-counted bound. On success
// it reports whether the caller must schedule the session on the work
// channel (the session was idle).
func (s *session) enqueue(b *ingestBatch, depth int) (schedule bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrSessionClosed
	}
	if s.queued+len(b.events) > depth {
		return false, ErrQueueFull
	}
	s.queue = append(s.queue, b)
	s.queued += len(b.events)
	s.lastUsed = time.Now()
	mQueueDepth.Add(float64(len(b.events)))
	mEventsIngested.Add(uint64(len(b.events)))
	if !s.scheduled {
		s.scheduled = true
		return true, nil
	}
	return false, nil
}

// pop removes the head batch, or reports the queue empty and clears the
// scheduled flag so the next enqueue reschedules the session.
func (s *session) pop() (*ingestBatch, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		s.scheduled = false
		return nil, false
	}
	b := s.queue[0]
	s.queue[0] = nil
	s.queue = s.queue[1:]
	s.queued -= len(b.events)
	mQueueDepth.Add(-float64(len(b.events)))
	return b, true
}

// score feeds one batch through the detector and accounts the verdicts.
// Only the scheduling turn that owns the session calls it, so detector
// access is serial and batch order is preserved.
func (s *session) score(b *ingestBatch) ingestReply {
	var rep ingestReply
	// Size the verdict slice once from the window arithmetic instead of
	// growing it append by append mid-turn.
	if s.window > 0 {
		if n := (s.det.Pending() + len(b.events)) / s.window; n > 0 {
			rep.verdicts = make([]Verdict, 0, n)
		}
	}
	for _, e := range b.events {
		det, err := s.det.Feed(e)
		var evErr *core.EventError
		switch {
		case errors.As(err, &evErr):
			rep.skipped++
		case err != nil:
			rep.err = err
			return rep
		default:
			rep.consumed++
		}
		if det != nil {
			rep.verdicts = append(rep.verdicts, verdictOf(*det))
		}
	}
	if n := len(rep.verdicts); n > 0 {
		mVerdictsTotal.Add(uint64(n))
		s.mu.Lock()
		s.verdicts += n
		for _, v := range rep.verdicts {
			if v.Malicious {
				s.malicious++
			}
		}
		s.mu.Unlock()
	}
	mVerdictSeconds.ObserveTraced(time.Since(b.enq).Seconds(), b.trace)
	return rep
}

// Queued returns the events accepted but not yet scored.
func (s *session) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// idleSince reports whether the session has been untouched since the
// cutoff and holds no queued or in-flight work, making it evictable.
func (s *session) idleSince(cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.scheduled && len(s.queue) == 0 && !s.closed && s.lastUsed.Before(cutoff)
}

// close marks the session closed and fails every queued batch with
// ErrSessionClosed, returning once no scheduling turn is in flight.
func (s *session) close() {
	for {
		s.mu.Lock()
		if s.scheduled {
			// A worker owns the session; let its turn finish draining.
			s.mu.Unlock()
			time.Sleep(time.Millisecond)
			continue
		}
		s.closed = true
		pending := s.queue
		s.queue = nil
		if s.queued > 0 {
			mQueueDepth.Add(-float64(s.queued))
			s.queued = 0
		}
		s.mu.Unlock()
		for _, b := range pending {
			b.done <- ingestReply{err: ErrSessionClosed}
		}
		return
	}
}

// quiesce blocks until the session's queue is drained and no scheduling
// turn is running, then marks it closed. Unlike close it lets queued
// batches score first — the graceful-shutdown path.
func (s *session) quiesce() {
	for {
		s.mu.Lock()
		if !s.scheduled && len(s.queue) == 0 {
			s.closed = true
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
}
