package serve

import (
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// Checkpoint handoff: the serve half of the fleet layer's session
// rebalancing. When a router moves a session between replicas it POSTs
// /v1/sessions/{id}/export on the losing replica — which quiesces the
// session, detaches it and returns a SessionExport envelope — and
// replays that envelope into POST /v1/sessions/import on the gaining
// replica, which restores the detector from the embedded checkpoint.
// The envelope is the one a SIGTERM spools (spool.go), so a handed-off
// session scores byte-identically to one that never moved. POST
// /v1/drain marks a replica as leaving the ring:
// readiness fails and new sessions are refused while resident sessions
// keep scoring until each is exported away.

// RingGenHeader carries the fleet router's ring generation on forwarded
// session-creation and import requests, stamping sessions with the ring
// epoch that placed them.
const RingGenHeader = "X-Leaps-Ring-Generation"

// SessionExport is the session envelope, the only form a session takes
// outside memory: POST /v1/sessions/{id}/export returns it, POST
// /v1/sessions/import accepts it, and eviction and shutdown spool it as
// <spool>/<id>.ckpt.
type SessionExport struct {
	// ID, Model, Spec, Created, Verdicts and Malicious rebuild the
	// session's identity, binding and counters.
	ID        string      `json:"id"`
	Model     string      `json:"model"`
	Spec      SessionSpec `json:"spec"`
	Created   time.Time   `json:"created"`
	Verdicts  int         `json:"verdicts"`
	Malicious int         `json:"malicious"`
	// Entry pins the registry entry the session's monitor was loaded
	// from, so a revived session — imported elsewhere, or restored here
	// after eviction or a restart — rebinds the same model even if a new
	// champion was promoted since the session was created.
	Entry string `json:"entry,omitempty"`
	// Replica names the replica that cut the envelope, for the handoff
	// audit trail.
	Replica string `json:"replica,omitempty"`
	// Checkpoint is the binary detector checkpoint (base64 in JSON).
	Checkpoint []byte `json:"checkpoint"`
}

// ringGenFrom reads the router's ring-generation stamp off a forwarded
// request (0 when absent or unparseable).
func ringGenFrom(r *http.Request) int64 {
	gen, _ := strconv.ParseInt(r.Header.Get(RingGenHeader), 10, 64)
	return gen
}

// handleExport detaches a session and returns its envelope; after a
// successful export the session no longer exists on this replica. A
// resident session is quiesced first, so every queued batch scores
// before the envelope is cut, and a checkpoint failure reinstates it
// unharmed. An evicted session hands over its spooled envelope as is,
// consumed without becoming resident, so the session cap never refuses a
// handoff.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Claim the session under the map lock: the claim is what makes
	// concurrent exports of the same session race-safe (exactly one wins).
	var ex SessionExport
	var err error
	s.sessMu.Lock()
	sess, resident := s.sessions[id]
	switch {
	case resident:
		delete(s.sessions, id)
	case s.cfg.SpoolDir == "":
		err = errNoSession
	default:
		if ex, err = s.readSpool(id); err == nil {
			_, err = s.removeSpool(id)
		}
	}
	s.sessMu.Unlock()
	if resident {
		mSessionsActive.Add(-1)
		sess.quiesce()
		if ex, err = s.envelope(sess); err != nil {
			// Reinstate: the session never left.
			sess.mu.Lock()
			sess.closed = false
			sess.mu.Unlock()
			s.sessMu.Lock()
			s.sessions[id] = sess
			s.sessMu.Unlock()
			mSessionsActive.Add(1)
			writeError(w, http.StatusInternalServerError, "checkpointing session: %v", err)
			return
		}
	} else if err != nil {
		refuse(w, s.missing(id, err))
		return
	}
	mSessionsExported.Inc()
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind:  "handoff",
		Name:  id,
		Trace: telemetry.TraceIDFrom(r.Context()),
		Attrs: map[string]string{
			"dir":      "export",
			"replica":  s.cfg.ReplicaID,
			"ring_gen": strconv.FormatInt(ringGenFrom(r), 10),
		},
	})
	s.cfg.Logger.Info("session exported", "session", id, "verdicts", ex.Verdicts)
	writeJSON(w, http.StatusOK, ex)
}

// handleImport revives a session from another replica's envelope under
// revive's binding rule and admits it. A draining replica refuses
// imports (it is leaving the ring, not gaining members' sessions).
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusConflict, "replica draining; not accepting imports")
		return
	}
	var ex SessionExport
	if !s.decodeBody(w, r, &ex) {
		return
	}
	sess, err := s.revive(ex)
	if err == nil {
		sess.ringGen = ringGenFrom(r)
		s.sessMu.Lock()
		err = s.admit(sess, false)
		s.sessMu.Unlock()
	}
	if err != nil {
		refuse(w, err)
		return
	}
	mSessionsImported.Inc()
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind:  "handoff",
		Name:  sess.id,
		Trace: telemetry.TraceIDFrom(r.Context()),
		Attrs: map[string]string{
			"dir":      "import",
			"replica":  s.cfg.ReplicaID,
			"from":     ex.Replica,
			"ring_gen": strconv.FormatInt(sess.ringGen, 10),
		},
	})
	s.cfg.Logger.Info("session imported",
		"session", sess.id, "from", ex.Replica, "entry", sess.entry, "verdicts", sess.verdicts)
	w.Header().Set("Location", "/v1/sessions/"+sess.id)
	writeJSON(w, http.StatusCreated, s.sessionInfo(sess, false))
}

// DrainStatus is the JSON body of the drain endpoints: the draining flag
// and the sessions still resident on the replica (sorted, so a router
// can export them deterministically).
type DrainStatus struct {
	// Draining reports whether the replica is refusing new sessions.
	Draining bool `json:"draining"`
	// Sessions lists resident session ids, sorted.
	Sessions []string `json:"sessions"`
}

// handleDrainStart marks the replica draining: readiness fails, new
// sessions and imports are refused, resident sessions keep scoring. The
// response lists the sessions awaiting export.
func (s *Server) handleDrainStart(w http.ResponseWriter, r *http.Request) {
	s.draining.Store(true)
	s.cfg.Logger.Info("drain started", "replica", s.cfg.ReplicaID)
	writeJSON(w, http.StatusOK, DrainStatus{Draining: true, Sessions: s.residentSessions()})
}

// handleDrainStop clears the draining flag — a drained replica rejoining
// the ring becomes ready again.
func (s *Server) handleDrainStop(w http.ResponseWriter, r *http.Request) {
	s.draining.Store(false)
	s.cfg.Logger.Info("drain stopped", "replica", s.cfg.ReplicaID)
	writeJSON(w, http.StatusOK, DrainStatus{Draining: false, Sessions: s.residentSessions()})
}

// residentSessions lists resident session ids, sorted.
func (s *Server) residentSessions() []string {
	s.sessMu.RLock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	s.sessMu.RUnlock()
	sort.Strings(ids)
	return ids
}
