package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// SessionInfo is the JSON body of session-creation responses and
// GET /v1/sessions/{id}: the session's binding plus live counters.
type SessionInfo struct {
	// ID addresses the session in subsequent requests.
	ID string `json:"id"`
	// Model is the model bundle the session scores with.
	Model string `json:"model"`
	// App is the monitored application's main image name.
	App string `json:"app"`
	// Window is the detection window length in events.
	Window int `json:"window"`
	// Degraded reports call-graph-fallback mode (no statistical model).
	Degraded bool `json:"degraded"`
	// Consumed and Skipped count events the detector has processed and
	// events it had to skip as unusable.
	Consumed int `json:"consumed"`
	Skipped  int `json:"skipped"`
	// Pending counts partial-window events buffered in the detector;
	// Queued counts events accepted but not yet scored.
	Pending int `json:"pending"`
	Queued  int `json:"queued"`
	// Verdicts and Malicious count scored windows and malicious ones.
	Verdicts  int `json:"verdicts"`
	Malicious int `json:"malicious"`
	// Replica is the owning replica's fleet ID and RingGeneration the
	// router ring generation stamped at creation or last handoff; both
	// are absent outside a fleet. Entry is the registry entry the
	// session's model was loaded from, absent for path/preloaded models.
	Replica        string `json:"replica,omitempty"`
	RingGeneration int64  `json:"ring_generation,omitempty"`
	Entry          string `json:"entry,omitempty"`
	// Created and LastUsed bound the session's lifetime.
	Created  time.Time `json:"created"`
	LastUsed time.Time `json:"last_used"`
	// Checkpoint is the detector's checkpoint, the JSON object a
	// SessionExport carries, present only when requested with
	// ?checkpoint=1.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
}

// IngestResult is the JSON body answering an accepted event batch.
type IngestResult struct {
	// Consumed and Skipped count this batch's events by outcome.
	Consumed int `json:"consumed"`
	Skipped  int `json:"skipped"`
	// Verdicts are the windows this batch completed, in stream order.
	Verdicts []Verdict `json:"verdicts"`
}

// buildMux wires the API routes, health probes and telemetry surface.
func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/import", s.handleImport)
	mux.HandleFunc("POST /v1/sessions/{id}/export", s.handleExport)
	mux.HandleFunc("POST /v1/drain", s.handleDrainStart)
	mux.HandleFunc("DELETE /v1/drain", s.handleDrainStop)
	if s.cfg.Registry != nil {
		mux.HandleFunc("GET /v1/models", s.handleModels)
		mux.HandleFunc("POST /v1/models/shadow", s.handleShadowStart)
		mux.HandleFunc("DELETE /v1/models/shadow", s.handleShadowStop)
		mux.HandleFunc("POST /v1/models/promote", s.handlePromote)
		mux.HandleFunc("POST /v1/models/rollback", s.handleRollback)
	}
	if s.cfg.Autopilot != nil {
		mux.HandleFunc("GET /v1/autopilot", s.handleAutopilot)
		mux.HandleFunc("POST /v1/autopilot/pause", s.handleAutopilotPause)
		mux.HandleFunc("POST /v1/autopilot/resume", s.handleAutopilotResume)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	telemetry.Register(mux)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeError(w, http.StatusNotFound, "no such endpoint")
			return
		}
		fmt.Fprintln(w, "leaps-serve endpoints:")
		fmt.Fprintln(w, "  POST   /v1/sessions")
		fmt.Fprintln(w, "  GET    /v1/sessions/{id}   (?checkpoint=1)")
		fmt.Fprintln(w, "  POST   /v1/sessions/{id}/events")
		fmt.Fprintln(w, "  POST   /v1/sessions/{id}/export")
		fmt.Fprintln(w, "  POST   /v1/sessions/import")
		fmt.Fprintln(w, "  DELETE /v1/sessions/{id}")
		fmt.Fprintln(w, "  POST   /v1/drain, DELETE /v1/drain")
		if s.cfg.Registry != nil {
			fmt.Fprintln(w, "  GET    /v1/models")
			fmt.Fprintln(w, "  POST   /v1/models/shadow")
			fmt.Fprintln(w, "  DELETE /v1/models/shadow")
			fmt.Fprintln(w, "  POST   /v1/models/promote")
			fmt.Fprintln(w, "  POST   /v1/models/rollback")
		}
		if s.cfg.Autopilot != nil {
			fmt.Fprintln(w, "  GET    /v1/autopilot")
			fmt.Fprintln(w, "  POST   /v1/autopilot/pause")
			fmt.Fprintln(w, "  POST   /v1/autopilot/resume")
		}
		fmt.Fprintln(w, "  GET    /healthz, /readyz")
		fmt.Fprintln(w, "  GET    /metrics, /spans, /debug/vars, /debug/pprof/")
	})
	s.mux = mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// replyBufs recycles the buffers writeIngest encodes replies into.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeIngest answers an event batch with res: the bytes writeJSON
// writes for it with a nil Verdicts taken as empty, appended by hand into
// a pooled buffer. The reply is encoded before the status is written, so
// a score or probability with no JSON form answers 500 with the error
// envelope instead of a 200 with an empty body.
func writeIngest(w http.ResponseWriter, res *IngestResult) {
	bp := replyBufs.Get().(*[]byte)
	b, err := appendIngestResult((*bp)[:0], res)
	if cap(b) <= maxPooledBody {
		*bp = b
		defer replyBufs.Put(bp)
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encoding reply: %v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// appendIngestResult appends res as a json.Encoder with
// SetIndent("", "  ") encodes it, trailing newline included, writing
// "verdicts": [] for a nil Verdicts too.
func appendIngestResult(b []byte, res *IngestResult) ([]byte, error) {
	b = append(b, "{\n  \"consumed\": "...)
	b = strconv.AppendInt(b, int64(res.Consumed), 10)
	b = append(b, ",\n  \"skipped\": "...)
	b = strconv.AppendInt(b, int64(res.Skipped), 10)
	if len(res.Verdicts) == 0 {
		return append(b, ",\n  \"verdicts\": []\n}\n"...), nil
	}
	b = append(b, ",\n  \"verdicts\": ["...)
	for i := range res.Verdicts {
		v := &res.Verdicts[i]
		if math.IsNaN(v.Score) || math.IsInf(v.Score, 0) || math.IsNaN(v.Probability) || math.IsInf(v.Probability, 0) {
			return b, fmt.Errorf("verdict %d: score %v or probability %v is not finite", i, v.Score, v.Probability)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"first_event\": "...)
		b = strconv.AppendInt(b, int64(v.FirstEvent), 10)
		b = append(b, ",\n      \"last_event\": "...)
		b = strconv.AppendInt(b, int64(v.LastEvent), 10)
		b = append(b, ",\n      \"score\": "...)
		b = appendFloat(b, v.Score)
		b = append(b, ",\n      \"probability\": "...)
		b = appendFloat(b, v.Probability)
		b = append(b, ",\n      \"malicious\": "...)
		b = strconv.AppendBool(b, v.Malicious)
		b = append(b, "\n    }"...)
	}
	return append(b, "\n  ]\n}\n"...), nil
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest 'f' form, but 'e' below 1e-6 and from 1e21 up, with a
// two-digit negative exponent trimmed to one digit (e-07 to e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// decodeBody decodes a JSON request body under the configured size cap,
// translating oversize bodies to 413 and malformed ones to 400. It
// reports whether decoding succeeded; on failure the response is sent.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		if !rejectOversize(w, err) {
			writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		}
		return false
	}
	return true
}

// readEvents reads an event-batch body once, under the configured size
// cap, and decodes it against the session's module map through the
// session's stack cache. On failure it has answered 413 or 400 and
// reports false.
func (s *Server) readEvents(w http.ResponseWriter, r *http.Request, sess *session) ([]trace.Event, bool) {
	d := decoders.Get().(*batchDecoder)
	defer d.release()
	d.body.Reset()
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		d.body.Grow(int(n) + bytes.MinRead) // room for the final EOF read too
	}
	if _, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		if !rejectOversize(w, err) {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, false
	}
	events, err := d.decode(d.body.Bytes(), sess.mm, &sess.stacks)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request body: %v", err)
		return nil, false
	}
	return events, true
}

// rejectOversize answers 413 when err reports a body past the size cap.
func rejectOversize(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	if !errors.As(err, &tooLarge) {
		return false
	}
	mRejected.With("body_too_large").Inc()
	writeError(w, http.StatusRequestEntityTooLarge,
		"request body exceeds %d bytes", tooLarge.Limit)
	return true
}

// resolveModel maps a session spec's model name to a loaded model,
// applying the default-model convention.
func (s *Server) resolveModel(name string) (*model, error) {
	if name == "" {
		if m, ok := s.models["default"]; ok {
			return m, nil
		}
		if len(s.models) == 1 {
			for _, m := range s.models {
				return m, nil
			}
		}
		return nil, fmt.Errorf("no model named and no default configured")
	}
	m, ok := s.models[name]
	if !ok {
		return nil, fmt.Errorf("unknown model %q", name)
	}
	return m, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "replica draining")
		return
	}
	var spec SessionSpec
	if !s.decodeBody(w, r, &spec) {
		return
	}
	if spec.ID != "" {
		if err := validSessionID(spec.ID); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	m, err := s.resolveModel(spec.Model)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	mm, err := spec.ModuleMap()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, entry, mon := m.snapshot()
	det, err := mon.Stream(mm)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "starting detector: %v", err)
		return
	}
	now := time.Now()
	sess := &session{
		id:       spec.ID,
		model:    m.name,
		spec:     spec,
		det:      det,
		mm:       mm,
		window:   mon.Window(),
		degraded: det.Degraded(),
		entry:    entry,
		ringGen:  ringGenFrom(r),
		created:  now,
		lastUsed: now,
	}
	sess.turn.L = &sess.mu
	if sess.id == "" {
		sess.id = newSessionID()
	}
	s.sessMu.Lock()
	err = s.admit(sess, false)
	s.sessMu.Unlock()
	if err != nil {
		refuse(w, err)
		return
	}
	mSessionsCreated.Inc()
	s.cfg.Logger.Info("session created",
		"session", sess.id, "model", sess.model, "app", spec.App, "degraded", sess.degraded)
	w.Header().Set("Location", "/v1/sessions/"+sess.id)
	writeJSON(w, http.StatusCreated, s.sessionInfo(sess, false))
}

// getSession finds a resident session, lazily restoring an evicted one
// from the spool. A restore the session cap refuses fails with
// errSessionLimit and keeps its envelope; any other failure reads as no
// session.
func (s *Server) getSession(id string) (*session, error) {
	s.sessMu.RLock()
	sess, ok := s.sessions[id]
	s.sessMu.RUnlock()
	if ok {
		return sess, nil
	}
	if s.cfg.SpoolDir == "" || s.closing.Load() {
		return nil, fmt.Errorf("%w %q", errNoSession, id)
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[id]; ok { // raced with another restorer
		return sess, nil
	}
	sess, err := s.restore(id)
	if errors.Is(err, errSessionLimit) {
		return nil, err
	}
	if err != nil {
		return nil, s.missing(id, err)
	}
	s.cfg.Logger.Info("session restored from spool on access", "session", id, "entry", sess.entry)
	return sess, nil
}

// sessionInfo snapshots a session for the API. With checkpoint set it
// embeds the detector's checkpoint.
func (s *Server) sessionInfo(sess *session, checkpoint bool) SessionInfo {
	sess.mu.Lock()
	info := SessionInfo{
		ID:        sess.id,
		Model:     sess.model,
		App:       sess.spec.App,
		Window:    sess.window,
		Degraded:  sess.degraded,
		Queued:    sess.queued,
		Verdicts:  sess.verdicts,
		Malicious: sess.malicious,
		Created:   sess.created,
		LastUsed:  sess.lastUsed,
	}
	sess.mu.Unlock()
	info.Replica = s.cfg.ReplicaID
	info.RingGeneration = sess.ringGen
	info.Entry = sess.entry
	info.Consumed = sess.det.Consumed()
	info.Skipped = sess.det.Skipped()
	info.Pending = sess.det.Pending()
	if checkpoint {
		var buf bytes.Buffer
		if err := sess.det.Checkpoint(&buf); err == nil {
			info.Checkpoint = buf.Bytes()
		}
	}
	return info
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.getSession(r.PathValue("id"))
	if err != nil {
		refuse(w, err)
		return
	}
	withCkpt := r.URL.Query().Get("checkpoint") != ""
	writeJSON(w, http.StatusOK, s.sessionInfo(sess, withCkpt))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	id := r.PathValue("id")
	sess, err := s.getSession(id)
	if err != nil {
		refuse(w, err)
		return
	}
	events, ok := s.readEvents(w, r, sess)
	if !ok {
		return
	}
	if len(events) == 0 {
		writeIngest(w, &IngestResult{})
		return
	}
	b := &ingestBatch{
		events: events,
		enq:    time.Now(),
		trace:  telemetry.TraceIDFrom(r.Context()),
	}
	ticket, err := sess.takeTicket(len(events), s.cfg.QueueDepth)
	if errors.Is(err, ErrSessionClosed) {
		// The session was evicted between lookup and admission; restore
		// it and retry once.
		if sess, err = s.getSession(id); err == nil {
			ticket, err = sess.takeTicket(len(events), s.cfg.QueueDepth)
		}
	}
	switch {
	case errors.Is(err, ErrQueueFull):
		mRejected.With("queue_full").Inc()
		w.Header().Set("Retry-After", retryAfterHint(sess.Queued(), s.cfg.QueueDepth))
		writeError(w, http.StatusTooManyRequests,
			"session queue full (%d events queued, depth %d)", sess.Queued(), s.cfg.QueueDepth)
		return
	case errors.Is(err, ErrSessionClosed):
		writeError(w, http.StatusConflict, "session %s is closed", id)
		return
	case err != nil:
		refuse(w, err)
		return
	}
	// An admitted batch scores even if its client has gone away, so the
	// session's stream has no gaps.
	rep := s.scoreTurn(sess, ticket, b)
	if rep.err != nil {
		writeError(w, http.StatusInternalServerError, "scoring batch: %v", rep.err)
		return
	}
	writeIngest(w, &IngestResult{Consumed: rep.consumed, Skipped: rep.skipped, Verdicts: rep.verdicts})
}

// retryAfterHint scales a 429's Retry-After with how backed up the
// session is: a barely-full queue suggests retrying in a second, a queue
// at full depth suggests several, capped so misbehaving clients never
// park themselves for minutes on a stale hint.
func retryAfterHint(queued, depth int) string {
	secs := 1
	if depth > 0 && queued > 0 {
		secs += 4 * queued / depth
	}
	if secs > 30 {
		secs = 30
	}
	return strconv.Itoa(secs)
}

// handleDelete discards a session, resident or spooled. The map and the
// spool change under one lock, so a delete cannot race a lazy restore of
// the same session.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var spooled bool
	var err error
	s.sessMu.Lock()
	sess, resident := s.sessions[id]
	delete(s.sessions, id)
	if s.cfg.SpoolDir != "" {
		spooled, err = s.removeSpool(id)
	}
	s.sessMu.Unlock()
	if resident {
		sess.quiesce()
		s.forgetShadow(id)
		mSessionsActive.Add(-1)
	}
	if err != nil && !errors.Is(err, errNoSession) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !resident && !spooled {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	s.cfg.Logger.Info("session deleted", "session", id)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.sessMu.RLock()
	n := len(s.sessions)
	s.sessMu.RUnlock()
	models := make([]string, 0, len(s.models))
	for name := range s.models {
		models = append(models, name)
	}
	sort.Strings(models)
	writeJSON(w, http.StatusOK, map[string]any{
		"ready":    true,
		"sessions": n,
		"models":   models,
	})
}
