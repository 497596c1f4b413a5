// Package serve implements the online detection server behind the
// leaps-serve binary: a long-running process that loads one or more
// trained model bundles and scores many concurrent event streams over an
// HTTP/JSON API.
//
// Each stream is a session — a core.StreamDetector pinned to one model.
// A batch POSTed to a session takes the session's next ticket and scores
// on its own request goroutine once the session's turn reaches that
// ticket, so a session's batches score one at a time in admission order
// and its verdict stream is a pure function of its event stream, however
// many sessions run concurrently. Backpressure is explicit: when the
// events admitted and not yet at their turn would exceed the queue
// depth, the request is rejected with 429 and a Retry-After hint rather
// than buffered without bound.
//
// Sessions survive restarts through the checkpoint spool: graceful
// shutdown writes every live session's envelope to the spool directory,
// and startup restores them. Idle sessions are spooled and evicted from
// memory, then transparently restored on next access. Restores consume
// the spooled envelope, so a scored event is never re-scored.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Config parameterises a Server. The zero value of every limit selects a
// production-safe default; at least one model source is mandatory.
type Config struct {
	// Models maps model names to bundle paths, loaded at startup and
	// re-read on Reload. The name "default" is what sessions get when
	// their spec names no model.
	Models map[string]string
	// Preloaded maps model names to already-loaded monitors (tests,
	// embedding callers). Preloaded models are not hot-reloadable.
	Preloaded map[string]*core.Monitor
	// Registry connects the server to a model registry: the model named
	// RegistryModel is loaded from the registry's current entry and
	// managed over the /v1/models API (shadow evaluation, gated
	// promotion, rollback). Nil disables the lifecycle endpoints.
	Registry *registry.Store
	// RegistryModel names the registry-backed model (default "default",
	// so sessions that name no model ride the registry champion).
	RegistryModel string
	// Gate is the promotion policy for shadow evaluation; the zero value
	// selects the registry package's defaults.
	Gate registry.Gate
	// Autopilot exposes a retraining controller over the API (GET
	// /v1/autopilot, POST /v1/autopilot/{pause,resume}). Nil disables the
	// endpoints. The server never calls into it from the scoring path.
	Autopilot Autopilot
	// ShadowQueue caps queued shadow batches awaiting challenger replay
	// (default 256). A full queue drops batches — shadow evaluation
	// never blocks or backpressures the serving path.
	ShadowQueue int
	// SpoolDir is where shutdown and eviction write session envelopes.
	// Empty disables the spool: shutdown discards session state and
	// idle sessions are never evicted.
	SpoolDir string
	// MaxSessions caps resident sessions (default 1024).
	MaxSessions int
	// QueueDepth caps the events per session admitted and not yet at
	// their turn (default 8192).
	QueueDepth int
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// IdleTimeout is how long a session may go untouched before the
	// janitor evicts it to the spool (default 15m; requires SpoolDir).
	IdleTimeout time.Duration
	// EvictInterval is the janitor's scan period (default 1m).
	EvictInterval time.Duration
	// ReplicaID names this server within a fleet. When set it is
	// reported as the owning replica in session info and stamped on
	// verdict flight-recorder entries, so handoff races are attributable
	// to a specific replica. Empty means "not part of a fleet".
	ReplicaID string
	// Logger receives operational logs (default slog.Default()).
	Logger *slog.Logger
}

// withDefaults fills unset limits.
func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8192
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 15 * time.Minute
	}
	if c.EvictInterval <= 0 {
		c.EvictInterval = time.Minute
	}
	if c.RegistryModel == "" {
		c.RegistryModel = "default"
	}
	if c.ShadowQueue <= 0 {
		c.ShadowQueue = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// model is one named bundle; mu guards the monitor pointer (and, for
// registry-backed models, the resolved bundle path and entry id) across
// hot reloads. Sessions capture the monitor's detector at creation, so a
// reload changes what new sessions score with, never live ones.
type model struct {
	name  string
	store *registry.Store // non-nil for the registry-backed model
	mu    sync.RWMutex
	path  string // empty for preloaded monitors; current bundle for registry models
	entry string // registry entry id currently loaded ("" otherwise)
	mon   *core.Monitor
}

func (m *model) monitor() *core.Monitor {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.mon
}

// snapshot returns the reload-guarded fields consistently.
func (m *model) snapshot() (path, entry string, mon *core.Monitor) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.path, m.entry, m.mon
}

// Server is the serving subsystem: models, sessions and the HTTP API.
// Create with NewServer, expose Handler on a listener, and call Shutdown
// to checkpoint and stop.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	models map[string]*model // immutable key set after NewServer

	sessMu   sync.RWMutex
	sessions map[string]*session
	// admitted counts the sessions admitted so far, under sessMu: the
	// serial in each session's shadow key.
	admitted uint64

	janitorStop chan struct{}
	janitorDone chan struct{}
	closing     atomic.Bool
	// draining marks a replica being removed from a fleet ring: readiness
	// fails, new sessions and imports are refused, but resident sessions
	// keep scoring until each is exported away (POST /v1/drain).
	draining atomic.Bool

	// reloadMu serialises Reload calls (SIGHUP races /v1/models writes).
	reloadMu sync.Mutex
	// trafficVerdicts/trafficMalicious count scored verdict windows since
	// process start, across all sessions — the autopilot's retrain
	// trigger reads them through TrafficStats.
	trafficVerdicts  atomic.Uint64
	trafficMalicious atomic.Uint64
	// canary is the active shadow evaluation, nil when none. The scoring
	// path reads it lock-free on every turn.
	canary atomic.Pointer[registry.Canary]
}

// NewServer loads the configured models, restores any spooled sessions,
// and starts the eviction janitor.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		models:      make(map[string]*model),
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	for name, path := range cfg.Models {
		mon, err := loadMonitorFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: model %q: %w", name, err)
		}
		s.models[name] = &model{name: name, path: path, mon: mon}
	}
	for name, mon := range cfg.Preloaded {
		if _, dup := s.models[name]; dup {
			return nil, fmt.Errorf("serve: model %q configured twice", name)
		}
		s.models[name] = &model{name: name, mon: mon}
	}
	if cfg.Registry != nil {
		name := cfg.RegistryModel
		if _, dup := s.models[name]; dup {
			return nil, fmt.Errorf("serve: model %q configured twice (registry and -model/preloaded)", name)
		}
		ptr, ok, err := cfg.Registry.Current()
		if err != nil {
			return nil, fmt.Errorf("serve: registry: %w", err)
		}
		if !ok {
			return nil, fmt.Errorf("serve: registry at %s has no current entry; publish a model first (leaps-train -registry)", cfg.Registry.Root())
		}
		path, err := cfg.Registry.BundlePath(ptr.ID)
		if err != nil {
			return nil, fmt.Errorf("serve: registry: %w", err)
		}
		mon, err := loadMonitorFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: registry entry %s: %w", ptr.ID, err)
		}
		s.models[name] = &model{name: name, store: cfg.Registry, path: path, entry: ptr.ID, mon: mon}
		cfg.Logger.Info("registry champion loaded", "model", name, "entry", ptr.ID, "degraded", mon.Degraded())
	}
	if len(s.models) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	if err := s.restoreSpooled(); err != nil {
		return nil, err
	}
	s.buildMux()
	go s.janitor()
	return s, nil
}

func loadMonitorFile(path string) (*core.Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadMonitor(f)
}

// Handler returns the server's HTTP API — the /v1 endpoints, health
// probes and telemetry introspection surface — wrapped in the tracing
// middleware, so every request carries a trace ID end to end.
func (s *Server) Handler() http.Handler { return s.traced(s.mux) }

// Reload re-reads every reloadable model — path-backed bundles from
// their configured paths, the registry-backed model from the registry's
// current entry — and swaps the set in atomically. The call is
// all-or-nothing: every bundle is staged first, and if any fails to load
// no model is swapped and the returned error (an errors.Join aggregate)
// names every failing model and path. Live sessions are unaffected
// either way; only sessions created after a successful reload see the
// new monitors.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()

	type staged struct {
		m     *model
		path  string
		entry string
		mon   *core.Monitor
	}
	var stage []staged
	var errs []error
	for _, m := range s.models {
		switch {
		case m.store != nil:
			ptr, ok, err := m.store.Current()
			if err == nil && !ok {
				err = errors.New("registry has no current entry")
			}
			var path string
			if err == nil {
				path, err = m.store.BundlePath(ptr.ID)
			}
			var mon *core.Monitor
			if err == nil {
				mon, err = loadMonitorFile(path)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("model %q (registry %s): %w", m.name, m.store.Root(), err))
				continue
			}
			stage = append(stage, staged{m: m, path: path, entry: ptr.ID, mon: mon})
		case m.path != "":
			mon, err := loadMonitorFile(m.path)
			if err != nil {
				errs = append(errs, fmt.Errorf("model %q (%s): %w", m.name, m.path, err))
				continue
			}
			stage = append(stage, staged{m: m, path: m.path, mon: mon})
		}
	}
	if len(errs) > 0 {
		err := fmt.Errorf("serve: reload aborted; no models swapped: %w", errors.Join(errs...))
		s.cfg.Logger.Error("model reload aborted; keeping all previous models",
			"failed", len(errs), "error", err)
		return err
	}
	for _, st := range stage {
		st.m.mu.Lock()
		st.m.path, st.m.entry, st.m.mon = st.path, st.entry, st.mon
		st.m.mu.Unlock()
		s.cfg.Logger.Info("model reloaded",
			"model", st.m.name, "path", st.path, "degraded", st.mon.Degraded())
	}
	if len(stage) > 0 {
		mModelReloads.Inc()
	}
	return nil
}

// Shutdown makes the API refuse new work, lets every admitted batch
// finish scoring, and checkpoints all sessions to the spool. It does not
// consult ctx: a session's admitted work is bounded by QueueDepth, and an
// admitted batch always scores so that no stream has a gap. The HTTP
// listener must already be closed or draining — Shutdown cannot stop the
// listener itself.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closing.Swap(true) {
		return nil
	}
	close(s.janitorStop)
	<-s.janitorDone

	s.sessMu.RLock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.sessMu.RUnlock()
	for _, sess := range live {
		sess.quiesce()
	}
	if c := s.canary.Swap(nil); c != nil {
		c.Stop()
	}

	var firstErr error
	if s.cfg.SpoolDir != "" {
		for _, sess := range live {
			if err := s.spoolSession(sess); err != nil {
				s.cfg.Logger.Error("checkpoint spool failed", "session", sess.id, "error", err)
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	s.sessMu.Lock()
	s.sessions = make(map[string]*session)
	s.sessMu.Unlock()
	mSessionsActive.Set(0)
	return firstErr
}

// scoreTurn waits for ticket t's turn on sess, scores b, and records
// what a scored batch feeds: the scoring metrics, the traffic counters
// behind the autopilot trigger, the verdict flight entry and the shadow
// offer. The turn ends even if scoring panics, so a failed batch cannot
// wedge its session.
func (s *Server) scoreTurn(sess *session, t uint64, b *ingestBatch) ingestReply {
	sess.awaitTurn(t, len(b.events))
	defer sess.endTurn()
	mQueueWaitSeconds.ObserveTraced(time.Since(b.enq).Seconds(), b.trace)
	scoreStart := time.Now()
	rep := sess.score(b)
	mScoreSeconds.ObserveTraced(time.Since(scoreStart).Seconds(), b.trace)
	if rep.err == nil && len(rep.verdicts) > 0 {
		var mal uint64
		for _, v := range rep.verdicts {
			if v.Malicious {
				mal++
			}
		}
		s.trafficVerdicts.Add(uint64(len(rep.verdicts)))
		s.trafficMalicious.Add(mal)
		attrs := map[string]string{
			"model":     sess.model,
			"verdicts":  strconv.Itoa(len(rep.verdicts)),
			"malicious": strconv.FormatUint(mal, 10),
		}
		if s.cfg.ReplicaID != "" {
			attrs["replica"] = s.cfg.ReplicaID
			attrs["ring_gen"] = strconv.FormatInt(sess.ringGen, 10)
		}
		telemetry.RecordFlight(telemetry.FlightEntry{
			Kind:  "verdict",
			Name:  sess.id,
			Trace: b.trace,
			Attrs: attrs,
		})
	}
	s.shadowOffer(sess, b, rep)
	return rep
}

// shadowOffer mirrors one scored batch to the active canary when the
// session rides the registry-backed model. The champion's verdicts are
// already final by the time it runs, and the offer itself is a
// non-blocking try-send, so shadow evaluation can never perturb the
// serving path's verdict stream.
func (s *Server) shadowOffer(sess *session, b *ingestBatch, rep ingestReply) {
	c := s.canary.Load()
	if c == nil || rep.err != nil || sess.model != s.cfg.RegistryModel {
		return
	}
	flags := make([]bool, len(rep.verdicts))
	for i, v := range rep.verdicts {
		flags[i] = v.Malicious
	}
	c.Offer(sess.shadow, sess.mm, b.events, flags)
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind:  "shadow",
		Name:  sess.id,
		Trace: b.trace,
		Attrs: map[string]string{"events": strconv.Itoa(len(b.events))},
	})
}

// forgetShadow tells the active canary, if any, that a session left
// this server, so its challenger detector is released. Without a
// shadow it costs one atomic load. The canary knows the session by its
// shadow key, so a session admitted under the same ID before the
// release offers to a fresh challenger stream of its own.
func (s *Server) forgetShadow(sess *session) {
	leaveHook(sess.id)
	if c := s.canary.Load(); c != nil {
		c.Forget(sess.shadow)
	}
}

// leaveHook is the test seam between a session's leaving the session map
// and the release of its challenger detector: a test re-creates the
// session's ID there.
var leaveHook = func(id string) {}

// janitor periodically checkpoints idle sessions to the spool and evicts
// them from memory.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	if s.cfg.SpoolDir == "" {
		<-s.janitorStop
		return
	}
	tick := time.NewTicker(s.cfg.EvictInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
			s.evictIdle(time.Now().Add(-s.cfg.IdleTimeout))
		}
	}
}

// evictIdle spools and drops every session untouched since the cutoff.
func (s *Server) evictIdle(cutoff time.Time) {
	s.sessMu.RLock()
	var idle []*session
	for _, sess := range s.sessions {
		if sess.idleSince(cutoff) {
			idle = append(idle, sess)
		}
	}
	s.sessMu.RUnlock()
	for _, sess := range idle {
		s.sessMu.Lock()
		if !sess.idleSince(cutoff) { // raced with fresh traffic
			s.sessMu.Unlock()
			continue
		}
		// A batch admitted since the check scores before the cut.
		sess.quiesce()
		if err := s.spoolSession(sess); err != nil {
			// Keep the session live rather than lose its state.
			sess.mu.Lock()
			sess.closed = false
			sess.mu.Unlock()
			s.sessMu.Unlock()
			s.cfg.Logger.Error("eviction checkpoint failed; keeping session",
				"session", sess.id, "error", err)
			continue
		}
		delete(s.sessions, sess.id)
		s.sessMu.Unlock()
		s.forgetShadow(sess)
		mSessionsEvicted.Inc()
		mSessionsActive.Add(-1)
		s.cfg.Logger.Info("idle session evicted to spool", "session", sess.id)
	}
}

// newSessionID returns a fresh random session identifier.
func newSessionID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: reading random session id: %v", err))
	}
	return hex.EncodeToString(b[:])
}
