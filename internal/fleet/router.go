package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Member is one serve replica behind the router: its fleet ID and the
// handler speaking the serve API. In-process fleets (tests, the cluster
// simulator) pass Server.Handler() directly; cmd/leaps-router wraps each
// replica's base URL in a reverse proxy.
type Member struct {
	// ID names the replica on the ring; it must match the replica's
	// serve.Config.ReplicaID for the ownership breadcrumbs to line up.
	ID string
	// Handler speaks the replica's serve API.
	Handler http.Handler
}

// RouterConfig parameterises a Router.
type RouterConfig struct {
	// Members are the replicas, all initially in the ring.
	Members []Member
	// Seed fixes the ring's hash layout; two routers with the same seed,
	// vnodes and membership agree on every placement.
	Seed uint64
	// Vnodes is the virtual-node count per member (default 64).
	Vnodes int
	// NewID mints session IDs for specs that request none (default: 8
	// random bytes, hex). The simulator injects a deterministic one.
	NewID func() string
	// MaxBodyBytes caps routed request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Logger receives routing logs (default slog.Default()).
	Logger *slog.Logger
}

// memberState is a Member plus the router's view of it.
type memberState struct {
	member  Member
	inRing  bool
	healthy bool
}

// Router shards sessions across replicas by consistent hashing on the
// session ID and forwards the serve session API unchanged. Placement is
// remembered in an ownership table (hash decides at creation; the table
// rules thereafter), so ring changes never silently strand an existing
// session: DrainMember and JoinMember move sessions explicitly by
// checkpoint handoff and update the table as each move commits. A failed
// handoff pins the session to its old replica — fail-static, the same
// rule the registry syncer follows.
type Router struct {
	cfg RouterConfig
	mux *http.ServeMux

	// rebalanceMu serialises ring changes (drain/join) end to end.
	rebalanceMu sync.Mutex

	mu      sync.Mutex
	ring    *Ring
	members map[string]*memberState
	table   map[string]string // session id -> owning member id
}

// NewRouter builds a router over the configured members, all in the
// ring.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one member")
	}
	if cfg.NewID == nil {
		cfg.NewID = func() string {
			var b [8]byte
			if _, err := rand.Read(b[:]); err != nil {
				panic(fmt.Sprintf("fleet: reading random session id: %v", err))
			}
			return hex.EncodeToString(b[:])
		}
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	rt := &Router{
		cfg:     cfg,
		ring:    NewRing(cfg.Seed, cfg.Vnodes),
		members: make(map[string]*memberState),
		table:   make(map[string]string),
	}
	for _, m := range cfg.Members {
		if m.Handler == nil {
			return nil, fmt.Errorf("fleet: member %q has no handler", m.ID)
		}
		if _, dup := rt.members[m.ID]; dup {
			return nil, fmt.Errorf("fleet: member %q configured twice", m.ID)
		}
		if err := rt.ring.Add(m.ID); err != nil {
			return nil, err
		}
		rt.members[m.ID] = &memberState{member: m, inRing: true, healthy: true}
	}
	mRingGeneration.Set(float64(rt.ring.Generation()))
	rt.buildMux()
	return rt, nil
}

func (rt *Router) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", rt.forwardSession)
	mux.HandleFunc("POST /v1/sessions/{id}/events", rt.forwardSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", rt.handleDelete)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	mux.HandleFunc("POST /v1/fleet/drain", rt.handleFleetDrain)
	mux.HandleFunc("POST /v1/fleet/join", rt.handleFleetJoin)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", rt.handleReady)
	telemetry.Register(mux)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeError(w, http.StatusNotFound, "no such endpoint")
			return
		}
		fmt.Fprintln(w, "leaps-router endpoints:")
		fmt.Fprintln(w, "  POST   /v1/sessions")
		fmt.Fprintln(w, "  GET    /v1/sessions/{id}")
		fmt.Fprintln(w, "  POST   /v1/sessions/{id}/events")
		fmt.Fprintln(w, "  DELETE /v1/sessions/{id}")
		fmt.Fprintln(w, "  GET    /v1/fleet")
		fmt.Fprintln(w, "  POST   /v1/fleet/drain, /v1/fleet/join")
		fmt.Fprintln(w, "  GET    /healthz, /readyz")
		fmt.Fprintln(w, "  GET    /metrics, /spans, /debug/vars, /debug/pprof/")
	})
	rt.mux = mux
}

// Handler returns the router's HTTP surface wrapped in the tracing
// middleware: the router adopts or mints a trace context and forwards it
// on the hop to the replica, so one trace follows a batch through both
// processes. Every response carries exactly one traceparent, the
// router's own span context, whether the router answered it or a member
// did.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tc telemetry.TraceContext
		if parent, ok := telemetry.ParseTraceParent(r.Header.Get("traceparent")); ok {
			tc = parent.Child()
		} else {
			tc = telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: telemetry.NewSpanID()}
		}
		ctx := telemetry.WithTraceContext(r.Context(), tc)
		tw := &traceWriter{ResponseWriter: w, traceparent: tc.TraceParent()}
		tw.pin()
		route := r.URL.Path
		if _, pattern := rt.mux.Handler(r); pattern != "" {
			route = pattern
		}
		start := time.Now()
		rt.mux.ServeHTTP(tw, r.WithContext(ctx))
		mRouterHTTPSeconds.With(route).ObserveTraced(time.Since(start).Seconds(), tc.Trace.String())
	})
}

// traceWriter keeps the router's traceparent the response's only one. A
// forwarded member writes its replica's response headers into the same
// map first — httputil.ReverseProxy adds them beside the router's — so
// the router's value is pinned again whenever a status is written.
type traceWriter struct {
	http.ResponseWriter
	traceparent string
	wrote       bool // a final status has been written
}

func (w *traceWriter) pin() { w.Header()["Traceparent"] = []string{w.traceparent} }

func (w *traceWriter) WriteHeader(code int) {
	w.pin()
	if code >= 200 {
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *traceWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.WriteHeader(http.StatusOK)
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *traceWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// owner resolves a session to its member: the ownership table rules for
// existing sessions, the ring decides for unknown ids.
func (rt *Router) owner(id string) (*memberState, int64, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	gen := rt.ring.Generation()
	if mid, ok := rt.table[id]; ok {
		return rt.members[mid], gen, true
	}
	mid, ok := rt.ring.Owner(id)
	if !ok {
		return nil, gen, false
	}
	return rt.members[mid], gen, true
}

// Owner reports which member a session id routes to and the current ring
// generation — the simulator uses it to charge virtual service time to
// the replica that really scored the batch.
func (rt *Router) Owner(id string) (string, int64, bool) {
	ms, gen, ok := rt.owner(id)
	if !ok {
		return "", gen, false
	}
	return ms.member.ID, gen, true
}

// originate runs a router-originated request against a member (export,
// import, drain probes), propagating the caller's trace context.
func (rt *Router) originate(ctx context.Context, ms *memberState, method, path string, body, out any) (int, error) {
	var rd io.Reader = bytes.NewReader(nil)
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("fleet: encoding %s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(blob)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc, ok := telemetry.TraceContextFrom(ctx); ok {
		req.Header.Set("traceparent", tc.TraceParent())
	}
	rt.mu.Lock()
	gen := rt.ring.Generation()
	rt.mu.Unlock()
	req.Header.Set(serve.RingGenHeader, strconv.FormatInt(gen, 10))
	rec := httptest.NewRecorder()
	ms.member.Handler.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 && rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return rec.Code, fmt.Errorf("fleet: decoding %s %s from %s: %w", method, path, ms.member.ID, err)
		}
	}
	return rec.Code, nil
}

// forward proxies the incoming request to a member, stamping the hop
// with the router's trace context and ring generation. The member's
// response streams straight through.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, ms *memberState, gen int64, body []byte) {
	r2 := r.Clone(r.Context())
	if body != nil {
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
	}
	if tc, ok := telemetry.TraceContextFrom(r.Context()); ok {
		r2.Header.Set("traceparent", tc.TraceParent())
	}
	r2.Header.Set(serve.RingGenHeader, strconv.FormatInt(gen, 10))
	mRouterForwards.With(ms.member.ID).Inc()
	ms.member.Handler.ServeHTTP(w, r2)
}

// handleCreate places a session: the spec's ID (minted here when absent)
// hashes to its owning replica, the request forwards there, and a 201
// records the placement in the ownership table.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading request body: %v", err)
		return
	}
	var spec serve.SessionSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding session spec: %v", err)
		return
	}
	if spec.ID == "" {
		spec.ID = rt.cfg.NewID()
		if blob, err = json.Marshal(spec); err != nil {
			writeError(w, http.StatusInternalServerError, "re-encoding session spec: %v", err)
			return
		}
	}
	ms, gen, ok := rt.owner(spec.ID)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no replicas in ring")
		return
	}
	if !ms.isHealthy() {
		writeError(w, http.StatusServiceUnavailable, "replica %s unhealthy", ms.member.ID)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	rt.forward(sw, r, ms, gen, blob)
	if sw.status == http.StatusCreated {
		rt.mu.Lock()
		rt.table[spec.ID] = ms.member.ID
		rt.mu.Unlock()
		rt.cfg.Logger.Info("session placed",
			"session", spec.ID, "replica", ms.member.ID, "ring_gen", gen)
	}
}

// forwardSession proxies a session-scoped request to its owner.
func (rt *Router) forwardSession(w http.ResponseWriter, r *http.Request) {
	ms, gen, ok := rt.owner(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no replicas in ring")
		return
	}
	if !ms.isHealthy() {
		writeError(w, http.StatusServiceUnavailable, "replica %s unhealthy", ms.member.ID)
		return
	}
	rt.forward(w, r, ms, gen, nil)
}

// handleDelete proxies the delete and forgets the placement on success.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ms, gen, ok := rt.owner(id)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "no replicas in ring")
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	rt.forward(sw, r, ms, gen, nil)
	if sw.status < 300 {
		rt.mu.Lock()
		delete(rt.table, id)
		rt.mu.Unlock()
	}
}

func (ms *memberState) isHealthy() bool { return ms.healthy }

// statusWriter captures the forwarded response status so the router can
// commit side effects (table updates) only on success.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
