package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
)

// Driver exercises a Server's HTTP API in-process, without sockets. Each
// call synthesises a real *http.Request, routes it through Handler() —
// the same tracing middleware, mux patterns, handler code, session
// turns and scoring a network client exercises — and decodes
// the recorded response. The load simulator (internal/sim) drives its
// replicas through a Driver so a simulated fleet measures the true
// serving path while the event schedule stays free of socket
// non-determinism; tests use it anywhere an httptest listener would be
// overkill.
type Driver struct {
	h http.Handler
}

// NewDriver returns a socket-free client for the server's API.
func NewDriver(s *Server) *Driver {
	return &Driver{h: s.Handler()}
}

// NewHandlerDriver returns a socket-free client for any handler speaking
// the serve API — a fleet router in front of several replicas drives the
// same client surface as a single server.
func NewHandlerDriver(h http.Handler) *Driver {
	return &Driver{h: h}
}

// DriverError is a non-2xx API response surfaced as an error: the HTTP
// status, the decoded error message, and the Retry-After hint (seconds,
// 0 when absent) for 429/503 responses.
type DriverError struct {
	// Status is the HTTP status code of the failed call.
	Status int
	// Msg is the error string from the JSON error envelope.
	Msg string
	// RetryAfter is the Retry-After header in seconds, 0 when absent.
	RetryAfter int
}

// Error implements the error interface.
func (e *DriverError) Error() string {
	return fmt.Sprintf("serve driver: status %d: %s", e.Status, e.Msg)
}

// IsStatus reports whether err is a *DriverError with the given status.
func IsStatus(err error, status int) bool {
	de, ok := err.(*DriverError)
	return ok && de.Status == status
}

// do runs one in-process request and decodes the JSON response into out
// (skipped when out is nil or the response has no body).
func (d *Driver) do(method, target string, body, out any) error {
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("serve driver: encoding %s %s: %w", method, target, err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, target, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	d.h.ServeHTTP(rec, req)
	res := rec.Result()
	defer res.Body.Close()
	if res.StatusCode >= 300 {
		var envelope apiError
		_ = json.NewDecoder(res.Body).Decode(&envelope)
		retry, _ := strconv.Atoi(res.Header.Get("Retry-After"))
		return &DriverError{Status: res.StatusCode, Msg: envelope.Error, RetryAfter: retry}
	}
	if out == nil || res.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		return fmt.Errorf("serve driver: decoding %s %s response: %w", method, target, err)
	}
	return nil
}

// CreateSession opens a session (POST /v1/sessions).
func (d *Driver) CreateSession(spec SessionSpec) (SessionInfo, error) {
	var info SessionInfo
	err := d.do(http.MethodPost, "/v1/sessions", spec, &info)
	return info, err
}

// Session fetches a session's counters (GET /v1/sessions/{id}).
func (d *Driver) Session(id string) (SessionInfo, error) {
	var info SessionInfo
	err := d.do(http.MethodGet, "/v1/sessions/"+id, nil, &info)
	return info, err
}

// Ingest scores one event batch (POST /v1/sessions/{id}/events) and
// returns the completed window verdicts. Backpressure surfaces exactly
// as it does over the network: a full queue is a *DriverError with
// status 429 and a Retry-After hint.
func (d *Driver) Ingest(id string, batch EventBatch) (IngestResult, error) {
	var res IngestResult
	err := d.do(http.MethodPost, "/v1/sessions/"+id+"/events", batch, &res)
	return res, err
}

// DeleteSession discards a session (DELETE /v1/sessions/{id}).
func (d *Driver) DeleteSession(id string) error {
	return d.do(http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Export detaches a session and returns its checkpoint-handoff envelope
// (POST /v1/sessions/{id}/export).
func (d *Driver) Export(id string) (SessionExport, error) {
	var ex SessionExport
	err := d.do(http.MethodPost, "/v1/sessions/"+id+"/export", nil, &ex)
	return ex, err
}

// Import restores a session from a checkpoint-handoff envelope
// (POST /v1/sessions/import).
func (d *Driver) Import(ex SessionExport) (SessionInfo, error) {
	var info SessionInfo
	err := d.do(http.MethodPost, "/v1/sessions/import", ex, &info)
	return info, err
}

// Drain marks the replica draining (POST /v1/drain), returning the
// sessions awaiting export.
func (d *Driver) Drain() (DrainStatus, error) {
	var st DrainStatus
	err := d.do(http.MethodPost, "/v1/drain", nil, &st)
	return st, err
}

// Ready probes readiness (GET /readyz): nil when the target would pass
// a load-balancer health check, a *DriverError with status 503 when it
// is draining or otherwise not ready.
func (d *Driver) Ready() error {
	return d.do(http.MethodGet, "/readyz", nil, nil)
}

// Undrain clears the draining flag (DELETE /v1/drain).
func (d *Driver) Undrain() (DrainStatus, error) {
	var st DrainStatus
	err := d.do(http.MethodDelete, "/v1/drain", nil, &st)
	return st, err
}
