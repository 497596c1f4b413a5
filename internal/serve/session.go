package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// Errors surfaced by session admission; the API layer maps them onto
// HTTP statuses (429 for a full queue, 409 for a closed session).
var (
	// ErrQueueFull reports that admitting a batch would push the
	// session's queued-event count past the configured depth.
	ErrQueueFull = errors.New("serve: session queue full")
	// ErrSessionClosed reports an ingest against a session that has been
	// deleted, exported, evicted or is shutting down.
	ErrSessionClosed = errors.New("serve: session closed")
)

// ingestReply is the scored outcome of one batch.
type ingestReply struct {
	consumed int
	skipped  int
	verdicts []Verdict
	err      error
}

// ingestBatch is one client POST: its decoded events, when it was
// admitted, and the originating request's trace ID, which joins the
// batch's observations and flight entries up with the HTTP request.
type ingestBatch struct {
	events []trace.Event
	enq    time.Time
	trace  string
}

// session is one live detection stream: a pinned detector plus the
// tickets that order its batches. Each admitted batch takes the next
// ticket and scores on its own request goroutine once the session's turn
// reaches that ticket, so batches score one at a time, in admission
// order, and verdicts are a pure function of the session's event stream.
type session struct {
	id string
	// shadow keys this session's challenger stream on a canary: its id
	// plus the serial of its admission, so a session that reuses the id
	// after this one left never continues this one's stream, whether it
	// offers before or after this one's release. Set by admit.
	shadow   string
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

	mu sync.Mutex
	// turn is signalled on mu whenever a turn ends; its L must be &mu.
	turn sync.Cond
	// next is the ticket the next admitted batch takes and serving the
	// ticket whose turn it is; they are equal when no batch is admitted.
	next, serving uint64
	queued        int // events admitted and not yet at their turn, bounded by Config.QueueDepth
	closed        bool
	created       time.Time
	lastUsed      time.Time
	verdicts      int
	malicious     int
}

// takeTicket admits a batch of n events, enforcing the event-counted
// bound, and returns the ticket its turn will carry.
func (s *session) takeTicket(n, depth int) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrSessionClosed
	}
	if s.queued+n > depth {
		return 0, ErrQueueFull
	}
	t := s.next
	s.next++
	s.queued += n
	s.lastUsed = time.Now()
	mQueueDepth.Add(float64(n))
	mEventsIngested.Add(uint64(n))
	return t, nil
}

// awaitTurn blocks until the session's turn reaches ticket t, whose batch
// holds n events. The caller owns the session until it calls endTurn.
func (s *session) awaitTurn(t uint64, n int) {
	s.mu.Lock()
	for s.serving != t {
		s.turn.Wait()
	}
	s.queued -= n
	s.mu.Unlock()
	mQueueDepth.Add(-float64(n))
}

// endTurn passes the session to the next ticket.
func (s *session) endTurn() {
	s.mu.Lock()
	s.serving++
	s.mu.Unlock()
	s.turn.Broadcast()
}

// score feeds one batch through the detector and accounts the verdicts.
// Only the batch whose turn it is calls it, so detector access is serial
// and batch order is preserved.
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

// Queued returns the events admitted but not yet at their turn.
func (s *session) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// idleSince reports whether the session has been untouched since the
// cutoff and holds no admitted batch, making it evictable.
func (s *session) idleSince(cutoff time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.serving == s.next && !s.closed && s.lastUsed.Before(cutoff)
}

// quiesce closes the session to new batches and blocks until every
// admitted batch has scored, so its detector is still and its envelope
// can be cut. DELETE, export, eviction and shutdown all go through it.
func (s *session) quiesce() {
	s.mu.Lock()
	s.closed = true
	for s.serving != s.next {
		s.turn.Wait()
	}
	s.mu.Unlock()
}
