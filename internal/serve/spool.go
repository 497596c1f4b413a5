package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Session envelopes. A SessionExport is the only form a session takes
// outside memory: checkpoint handoff sends it over HTTP, and idle
// eviction and graceful shutdown write it to the checkpoint spool as
// <spool>/<id>.ckpt, one JSON file per session. (Not .json: by default
// the flight recorder writes flight-*.json into the same directory.)
// Every way a session leaves or re-enters a replica goes through the
// same three functions — envelope cuts one, revive rebuilds a session
// from one, admit makes a session resident — so handoff, eviction and
// restart share one model-binding rule, one session cap and one consume
// rule. A restore consumes its envelope before the session becomes
// resident, so a scored window is never scored twice.

// spoolExt is the filename suffix of spooled envelopes.
const spoolExt = ".ckpt"

// Causes of a failed revive or admission; refuse maps them onto HTTP
// statuses.
var (
	errNoSession     = errors.New("no such session")
	errSessionExists = errors.New("session already exists")
	errSessionLimit  = errors.New("session limit reached")
	errBadEnvelope   = errors.New("invalid session envelope")
	errPinnedMissing = errors.New("pinned entry not in this replica's registry")
)

// validSessionID vets a session identifier: session ids become spool
// file names, so they are restricted to filename-safe characters and
// bounded length.
func validSessionID(id string) error {
	if id == "" {
		return fmt.Errorf("serve: empty session id")
	}
	if len(id) > 64 {
		return fmt.Errorf("serve: session id longer than 64 bytes")
	}
	for i, r := range id {
		alnum := r >= '0' && r <= '9' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z'
		if i == 0 && !alnum {
			return fmt.Errorf("serve: session id %q must start with a letter or digit", id)
		}
		if !alnum && r != '.' && r != '_' && r != '-' {
			return fmt.Errorf("serve: session id %q contains %q (allowed: letters, digits, '.', '_', '-')", id, r)
		}
	}
	return nil
}

// envelope cuts the envelope of a quiesced session (no admitted batch
// left to score).
func (s *Server) envelope(sess *session) (SessionExport, error) {
	var buf bytes.Buffer
	if err := sess.det.Checkpoint(&buf); err != nil {
		return SessionExport{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return SessionExport{
		ID:         sess.id,
		Model:      sess.model,
		Spec:       sess.spec,
		Created:    sess.created,
		Verdicts:   sess.verdicts,
		Malicious:  sess.malicious,
		Entry:      sess.entry,
		Replica:    s.cfg.ReplicaID,
		Checkpoint: buf.Bytes(),
	}, nil
}

// revive rebuilds a session from an envelope; the session is not yet
// resident. Its detector resumes from the checkpoint under one binding
// rule: when the model is registry-backed and the envelope pins an entry
// other than the current one, the pinned entry's bundle is loaded, so a
// promotion never splits a session's windows between two models;
// otherwise the current monitor binds.
func (s *Server) revive(ex SessionExport) (*session, error) {
	if err := validSessionID(ex.ID); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadEnvelope, err)
	}
	m, err := s.resolveModel(ex.Model)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadEnvelope, err)
	}
	mm, err := ex.Spec.ModuleMap()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadEnvelope, err)
	}
	_, entry, mon := m.snapshot()
	switch {
	case ex.Entry == "" || ex.Entry == entry:
		// The current monitor is the right binding.
	case m.store == nil:
		// No registry to pin against; the current monitor is the best
		// available binding, and continuity across a path reload is not
		// guaranteed.
		s.cfg.Logger.Warn("session pins an entry but model has no registry; binding current monitor",
			"session", ex.ID, "entry", ex.Entry)
	default:
		rc, err := m.store.OpenBundle(ex.Entry)
		if err != nil {
			return nil, fmt.Errorf("%w: %s (sync lag?): %v", errPinnedMissing, ex.Entry, err)
		}
		pinned, err := core.LoadMonitor(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("loading pinned entry %s: %w", ex.Entry, err)
		}
		mon, entry = pinned, ex.Entry
	}
	det, err := mon.RestoreStream(mm, bytes.NewReader(ex.Checkpoint))
	if err != nil {
		return nil, fmt.Errorf("%w: restoring checkpoint: %v", errBadEnvelope, err)
	}
	sess := &session{
		id:        ex.ID,
		model:     m.name,
		spec:      ex.Spec,
		det:       det,
		mm:        mm,
		window:    mon.Window(),
		degraded:  det.Degraded(),
		entry:     entry,
		created:   ex.Created,
		lastUsed:  time.Now(),
		verdicts:  ex.Verdicts,
		malicious: ex.Malicious,
	}
	sess.turn.L = &sess.mu
	return sess, nil
}

// admit makes sess resident: the one check of the session cap and id
// uniqueness that create, import and both restores share. It gives the
// session its shadow key. An id is
// taken while it is resident or spooled, except that a restore consumes
// its own envelope: the cap is checked first, so a refused restore keeps
// its envelope, and the envelope is removed before the session becomes
// resident, so a failed removal leaves it unrestored (at most once). The
// caller holds sessMu for writing.
func (s *Server) admit(sess *session, restore bool) error {
	if _, dup := s.sessions[sess.id]; dup {
		return fmt.Errorf("%w: %q", errSessionExists, sess.id)
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		mRejected.With("session_limit").Inc()
		return fmt.Errorf("%w (%d)", errSessionLimit, s.cfg.MaxSessions)
	}
	if s.cfg.SpoolDir != "" {
		if restore {
			if _, err := s.removeSpool(sess.id); err != nil {
				return err
			}
		} else if path, err := s.spoolPath(sess.id); err != nil {
			return err
		} else if _, err := os.Stat(path); err == nil {
			return fmt.Errorf("%w: %q is spooled", errSessionExists, sess.id)
		}
	}
	s.admitted++
	sess.shadow = sess.id + "#" + strconv.FormatUint(s.admitted, 10)
	s.sessions[sess.id] = sess
	mSessionsActive.Add(1)
	return nil
}

// refuse answers a failed revive or admission with the status its cause
// names: 503 with Retry-After at the session cap, however the session
// was entering.
func refuse(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errNoSession):
		status = http.StatusNotFound
	case errors.Is(err, errBadEnvelope):
		status = http.StatusBadRequest
	case errors.Is(err, errSessionExists), errors.Is(err, errPinnedMissing):
		status = http.StatusConflict
	case errors.Is(err, errSessionLimit):
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, "%v", err)
}

// restore revives a spooled session and admits it, consuming its
// envelope. The caller holds sessMu for writing.
func (s *Server) restore(id string) (*session, error) {
	ex, err := s.readSpool(id)
	if err != nil {
		return nil, err
	}
	sess, err := s.revive(ex)
	if err != nil {
		return nil, err
	}
	if err := s.admit(sess, true); err != nil {
		return nil, err
	}
	mSessionsRestored.Inc()
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind: "spool", Name: "restore", Attrs: map[string]string{"session": id},
	})
	return sess, nil
}

// restoreSpooled eagerly restores every spooled session at startup, up
// to the session cap.
func (s *Server) restoreSpooled() error {
	if s.cfg.SpoolDir == "" {
		return nil
	}
	ids, err := s.spooledIDs()
	if err != nil {
		return fmt.Errorf("serve: scanning spool: %w", err)
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	for _, id := range ids {
		sess, err := s.restore(id)
		switch {
		case errors.Is(err, errSessionLimit):
			s.cfg.Logger.Warn("session limit reached; leaving remaining spool entries on disk",
				"restored", len(s.sessions))
			return nil
		case err != nil:
			s.missing(id, err)
		default:
			s.cfg.Logger.Info("session restored from spool", "session", id, "model", sess.model, "entry", sess.entry)
		}
	}
	return nil
}

// missing reports a spooled session that could not be read or restored
// as absent, logging why unless it simply was not there. Its envelope
// stays on disk.
func (s *Server) missing(id string, err error) error {
	if !errors.Is(err, errNoSession) {
		s.cfg.Logger.Error("spooled session not restorable; leaving on disk", "session", id, "error", err)
	}
	return fmt.Errorf("%w %q", errNoSession, id)
}

// spoolPath resolves a session's envelope path. Ids arrive from request
// paths, where an escaped slash reaches the handler unescaped, so every
// spool path is validated; no session has an invalid id.
func (s *Server) spoolPath(id string) (string, error) {
	if err := validSessionID(id); err != nil {
		return "", fmt.Errorf("%w: %v", errNoSession, err)
	}
	return filepath.Join(s.cfg.SpoolDir, id+spoolExt), nil
}

// spoolSession cuts a quiesced session's envelope and writes it to the
// spool atomically, replacing any earlier one.
func (s *Server) spoolSession(sess *session) error {
	if err := faultinject.Step("serve/spool/checkpoint"); err != nil {
		return err
	}
	path, err := s.spoolPath(sess.id)
	if err != nil {
		return err
	}
	ex, err := s.envelope(sess)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(ex)
	if err != nil {
		return fmt.Errorf("encoding envelope: %w", err)
	}
	if err := os.MkdirAll(s.cfg.SpoolDir, 0o755); err != nil {
		return fmt.Errorf("creating spool directory: %w", err)
	}
	if err := registry.WriteFileAtomic(path, blob); err != nil {
		return fmt.Errorf("writing spooled envelope: %w", err)
	}
	telemetry.RecordFlight(telemetry.FlightEntry{
		Kind: "spool", Name: "checkpoint", Attrs: map[string]string{"session": sess.id},
	})
	return nil
}

// readSpool reads a session's spooled envelope, refusing one that names
// another session.
func (s *Server) readSpool(id string) (SessionExport, error) {
	var ex SessionExport
	path, err := s.spoolPath(id)
	if err != nil {
		return ex, err
	}
	blob, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return ex, fmt.Errorf("%w %q", errNoSession, id)
	}
	if err != nil {
		return ex, fmt.Errorf("reading spooled envelope: %w", err)
	}
	if err := json.Unmarshal(blob, &ex); err != nil {
		return ex, fmt.Errorf("%w: decoding %s: %v", errBadEnvelope, path, err)
	}
	if ex.ID != id {
		return ex, fmt.Errorf("%w: %s holds session %q", errBadEnvelope, path, ex.ID)
	}
	return ex, nil
}

// removeSpool deletes a session's spooled envelope and reports whether
// there was one.
func (s *Server) removeSpool(id string) (bool, error) {
	path, err := s.spoolPath(id)
	if err != nil {
		return false, err
	}
	if err := os.Remove(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("removing spooled envelope: %w", err)
	}
	return true, nil
}

// spooledIDs lists the sessions with an envelope in the spool, sorted. A
// missing directory is an empty spool.
func (s *Server) spooledIDs() ([]string, error) {
	entries, err := os.ReadDir(s.cfg.SpoolDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), spoolExt)
		if ok && !e.IsDir() && validSessionID(id) == nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}
