package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// newTestFleet boots n serve replicas r0..r(n-1) behind a fresh router
// and returns the router plus a driver speaking to it.
func newTestFleet(t *testing.T, n int) (*Router, *serve.Driver, []*serve.Server) {
	t.Helper()
	var members []Member
	var servers []*serve.Server
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("r%d", i)
		srv := newServeReplica(t, id)
		servers = append(servers, srv)
		members = append(members, Member{ID: id, Handler: srv.Handler()})
	}
	rt, err := NewRouter(RouterConfig{Members: members, Seed: 1106, Vnodes: 64, Logger: discardLogger()})
	if err != nil {
		t.Fatal(err)
	}
	return rt, serve.NewHandlerDriver(rt.Handler()), servers
}

// TestRouterPlacement: routed creates land on the ring owner, the
// placement is visible in the session info breadcrumbs, and two routers
// configured alike agree on every placement.
func TestRouterPlacement(t *testing.T) {
	_, logs := fixtures(t)
	rt, drv, _ := newTestFleet(t, 3)

	other, err := NewRouter(RouterConfig{
		Members: []Member{
			{ID: "r0", Handler: http.NotFoundHandler()},
			{ID: "r1", Handler: http.NotFoundHandler()},
			{ID: "r2", Handler: http.NotFoundHandler()},
		},
		Seed: 1106, Vnodes: 64, Logger: discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}

	owners := map[string]bool{}
	for i := 0; i < 12; i++ {
		spec := serve.SessionSpecOf(logs.Malicious, "")
		spec.ID = fmt.Sprintf("s%05d", i)
		info, err := drv.CreateSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		want, gen, ok := rt.Owner(spec.ID)
		if !ok || info.Replica != want {
			t.Errorf("session %s reports replica %q, ring owner is %q (ok=%v)", spec.ID, info.Replica, want, ok)
		}
		if info.RingGeneration != gen {
			t.Errorf("session %s ring generation %d, want %d", spec.ID, info.RingGeneration, gen)
		}
		if w2, _, _ := other.Owner(spec.ID); w2 != want {
			t.Errorf("identically configured router disagrees on %s: %s vs %s", spec.ID, w2, want)
		}
		owners[info.Replica] = true
	}
	if len(owners) < 2 {
		t.Errorf("12 sessions all landed on %v; sharding is not spreading", owners)
	}
	st := rt.Status()
	if st.Sessions != 12 || len(st.Members) != 3 {
		t.Errorf("fleet status %+v, want 12 sessions across 3 members", st)
	}

	// An ID-less create gets a minted ID and still lands consistently.
	info, err := drv.CreateSession(serve.SessionSpecOf(logs.Malicious, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(info.ID) != 16 {
		t.Errorf("minted session id %q, want 8 random bytes hex-encoded", info.ID)
	}
	if want, _, _ := rt.Owner(info.ID); info.Replica != want {
		t.Errorf("minted session on %s, ring owner %s", info.Replica, want)
	}

	// Deleting through the router forgets the placement.
	if err := drv.DeleteSession(info.ID); err != nil {
		t.Fatal(err)
	}
	if st := rt.Status(); st.Sessions != 12 {
		t.Errorf("sessions after delete %d, want 12", st.Sessions)
	}
}

// TestRouterCreateReadsOnlyID: the router reads a create's ID and
// nothing else. A spec that names its ID reaches the owner byte for byte;
// an ID-less spec is decoded, given the minted ID and placed; and a spec
// whose ID decodes but whose other fields do not gets the replica's 400
// and no placement.
func TestRouterCreateReadsOnlyID(t *testing.T) {
	var got []byte
	recorder := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
		w.WriteHeader(http.StatusCreated)
	})
	create := func(rt *Router, body string) int {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(body)))
		return rec.Code
	}
	rt, err := NewRouter(RouterConfig{
		Members: []Member{{ID: "r0", Handler: recorder}},
		Seed:    1106, Logger: discardLogger(),
		NewID: func() string { return "minted" },
	})
	if err != nil {
		t.Fatal(err)
	}

	named := `{ "app": "vim.exe",  "modules": [ ], "ID": "first" }`
	if code := create(rt, named); code != http.StatusCreated || string(got) != named {
		t.Errorf("named create: status %d, member saw %q, want 201 and %q", code, got, named)
	}
	if code := create(rt, `{"app":"vim.exe"}`); code != http.StatusCreated {
		t.Fatalf("ID-less create: status %d, want 201", code)
	}
	var spec serve.SessionSpec
	if err := json.Unmarshal(got, &spec); err != nil || spec.ID != "minted" || spec.App != "vim.exe" {
		t.Errorf("ID-less create forwarded %q (%v), want the spec with ID minted", got, err)
	}
	rt.mu.Lock()
	table := maps.Clone(rt.table)
	rt.mu.Unlock()
	if want := map[string]string{"first": "r0", "minted": "r0"}; !reflect.DeepEqual(table, want) {
		t.Errorf("ownership table %v, want %v", table, want)
	}

	rt, err = NewRouter(RouterConfig{
		Members: []Member{{ID: "r0", Handler: newServeReplica(t, "r0").Handler()}},
		Seed:    1106, Logger: discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if code := create(rt, `{"id":"x","modules":5}`); code != http.StatusBadRequest {
		t.Errorf("malformed spec with an ID: status %d, want 400", code)
	}
	if n := rt.Status().Sessions; n != 0 {
		t.Errorf("malformed spec left %d placements, want none", n)
	}
}

// TestRouterDrainJoinContinuity is the tentpole guarantee end to end: a
// fleet of three replicas scores a cohort of sessions, one replica
// drains mid-traffic (checkpoint handoff), traffic continues, the
// replica rejoins (sessions hand back), and every session's concatenated
// verdict stream is byte-identical to the same session scored on a
// single unrouted server.
func TestRouterDrainJoinContinuity(t *testing.T) {
	mon, logs := fixtures(t)
	rt, drv, servers := newTestFleet(t, 3)

	// The unmoved reference: one plain server scoring the same events.
	ref := newServeReplica(t, "ref")
	rdrv := serve.NewDriver(ref)

	mal := logs.Malicious
	events := mal.Events[:3*mon.Window()]
	cut1, cut2 := len(events)/3, 2*len(events)/3

	const n = 9
	got := map[string][]serve.Verdict{}
	want := map[string][]serve.Verdict{}
	for i := 0; i < n; i++ {
		sid := fmt.Sprintf("s%05d", i)
		spec := serve.SessionSpecOf(mal, "")
		spec.ID = sid
		if _, err := drv.CreateSession(spec); err != nil {
			t.Fatal(err)
		}
		rspec := serve.SessionSpecOf(mal, "")
		rspec.ID = "ref-" + sid
		if _, err := rdrv.CreateSession(rspec); err != nil {
			t.Fatal(err)
		}
		res, err := rdrv.Ingest(rspec.ID, serve.EventBatch{Events: serve.EventSpecsOf(events)})
		if err != nil {
			t.Fatal(err)
		}
		want[sid] = res.Verdicts
	}

	ingestAll := func(from, to int) {
		t.Helper()
		for i := 0; i < n; i++ {
			sid := fmt.Sprintf("s%05d", i)
			res, err := drv.Ingest(sid, serve.EventBatch{Events: serve.EventSpecsOf(events[from:to])})
			if err != nil {
				t.Fatalf("ingest %s [%d:%d]: %v", sid, from, to, err)
			}
			got[sid] = append(got[sid], res.Verdicts...)
		}
	}

	ingestAll(0, cut1)

	// Phase 2: drain r1 mid-traffic. Its sessions move by checkpoint
	// handoff; everyone keeps scoring through the router.
	beforeDrain := rt.Status()
	var r1Sessions int
	for _, m := range beforeDrain.Members {
		if m.ID == "r1" {
			r1Sessions = m.Sessions
		}
	}
	moved, err := rt.DrainMember(context.Background(), "r1")
	if err != nil {
		t.Fatalf("drain r1: %v", err)
	}
	if moved != r1Sessions {
		t.Errorf("drain moved %d sessions, r1 held %d", moved, r1Sessions)
	}
	st := rt.Status()
	for _, m := range st.Members {
		if m.ID == "r1" && (m.InRing || m.Sessions != 0) {
			t.Errorf("r1 after drain: %+v, want out of ring with 0 sessions", m)
		}
	}
	// The drained replica itself refuses new work.
	r1drv := serve.NewDriver(servers[1])
	if _, err := r1drv.CreateSession(serve.SessionSpecOf(mal, "")); !serve.IsStatus(err, http.StatusServiceUnavailable) {
		t.Errorf("create on drained r1: err %v, want 503", err)
	}

	ingestAll(cut1, cut2)

	// Phase 3: r1 rejoins; the ring layout is restored, so exactly the
	// sessions that originally hashed to r1 hand back.
	movedBack, err := rt.JoinMember(context.Background(), "r1")
	if err != nil {
		t.Fatalf("join r1: %v", err)
	}
	if movedBack != r1Sessions {
		t.Errorf("join moved %d sessions back, want %d", movedBack, r1Sessions)
	}
	if gen := rt.Status().Generation; gen != 5 {
		t.Errorf("ring generation %d, want 5 (3 adds + drain + join)", gen)
	}

	ingestAll(cut2, len(events))

	for i := 0; i < n; i++ {
		sid := fmt.Sprintf("s%05d", i)
		if !reflect.DeepEqual(got[sid], want[sid]) {
			t.Errorf("session %s: %d verdicts across drain+join differ from the unmoved reference (%d verdicts)",
				sid, len(got[sid]), len(want[sid]))
		}
	}

	// Ownership breadcrumbs survived the round trip: every session
	// reports the member the router's table places it on.
	for i := 0; i < n; i++ {
		sid := fmt.Sprintf("s%05d", i)
		info, err := drv.Session(sid)
		if err != nil {
			t.Fatal(err)
		}
		if want, _, _ := rt.Owner(sid); info.Replica != want {
			t.Errorf("session %s reports replica %q, router places it on %q", sid, info.Replica, want)
		}
	}
}

// TestRouterDrainGuards: the last ring member cannot drain, unknown
// members are rejected, and drain/join are idempotence-checked.
func TestRouterDrainGuards(t *testing.T) {
	fixtures(t)
	rt, _, _ := newTestFleet(t, 2)
	ctx := context.Background()

	if _, err := rt.DrainMember(ctx, "nope"); err == nil {
		t.Error("draining an unknown member succeeded")
	}
	if _, err := rt.JoinMember(ctx, "r0"); err == nil {
		t.Error("joining an in-ring member succeeded")
	}
	if _, err := rt.DrainMember(ctx, "r0"); err != nil {
		t.Fatalf("drain r0: %v", err)
	}
	if _, err := rt.DrainMember(ctx, "r0"); err == nil {
		t.Error("double drain succeeded")
	}
	if _, err := rt.DrainMember(ctx, "r1"); err == nil {
		t.Error("draining the last ring member succeeded")
	}
	if _, err := rt.JoinMember(ctx, "r0"); err != nil {
		t.Fatalf("rejoin r0: %v", err)
	}
}

// TestRouterHealth: health checks flip member state off readyz, readiness
// follows, and the fleet endpoints respond over the HTTP surface.
func TestRouterHealth(t *testing.T) {
	fixtures(t)
	rt, drv, servers := newTestFleet(t, 2)
	ctx := context.Background()

	rt.HealthCheck(ctx)
	for _, m := range rt.Status().Members {
		if !m.Healthy {
			t.Errorf("member %s unhealthy after probe: %+v", m.ID, m)
		}
	}

	// Shut one replica down for real; the probe must notice.
	if err := servers[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rt.HealthCheck(ctx)
	for _, m := range rt.Status().Members {
		if m.ID == "r1" && m.Healthy {
			t.Error("r1 still healthy after shutdown")
		}
	}
	// The router stays ready while r0 lives.
	if err := drv.Ready(); err != nil {
		t.Errorf("router readyz with one healthy member: %v", err)
	}
}

// TestRouterSingleTraceparent drives the router in front of a real
// httputil.ReverseProxy member, the shape leaps-router runs: every
// response, forwarded or answered by the router itself, carries exactly
// one traceparent — the router's child of the caller's span.
func TestRouterSingleTraceparent(t *testing.T) {
	_, logs := fixtures(t)
	replica := httptest.NewServer(newServeReplica(t, "r0").Handler())
	defer replica.Close()
	target, err := url.Parse(replica.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{
		Members: []Member{{ID: "r0", Handler: httputil.NewSingleHostReverseProxy(target)}},
		Seed:    1106, Logger: discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	caller := telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: telemetry.NewSpanID()}
	spec := serve.SessionSpecOf(logs.Malicious, "")
	spec.ID = "traced"
	batch := serve.EventBatch{Events: serve.EventSpecsOf(logs.Malicious.Events[:50])}
	for _, c := range []struct {
		method, path string
		body         any
		status       int
	}{
		{"POST", "/v1/sessions", spec, http.StatusCreated},
		{"POST", "/v1/sessions/traced/events", batch, http.StatusOK},
		{"GET", "/v1/sessions/traced", nil, http.StatusOK},
		{"GET", "/v1/sessions/absent", nil, http.StatusNotFound},
		{"DELETE", "/v1/sessions/traced", nil, http.StatusNoContent},
		{"GET", "/v1/fleet", nil, http.StatusOK},
		{"GET", "/healthz", nil, http.StatusOK},
		{"GET", "/no/such/route", nil, http.StatusNotFound},
	} {
		var body []byte
		if c.body != nil {
			if body, err = json.Marshal(c.body); err != nil {
				t.Fatal(err)
			}
		}
		req, err := http.NewRequest(c.method, front.URL+c.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", caller.TraceParent())
		resp, err := front.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, resp.StatusCode, c.status)
		}
		got := resp.Header.Values("traceparent")
		if len(got) != 1 {
			t.Errorf("%s %s: %d traceparent values %q, want exactly one", c.method, c.path, len(got), got)
			continue
		}
		tc, ok := telemetry.ParseTraceParent(got[0])
		if !ok || tc.Trace != caller.Trace || tc.Span == caller.Span {
			t.Errorf("%s %s: traceparent %q is not a child of the caller's %q", c.method, c.path, got[0], caller.TraceParent())
		}
	}
}
