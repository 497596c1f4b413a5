package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestTraceParentPropagation drives one traced ingest end to end: the
// injected traceparent must come back in the response header as a child
// span, land as an exemplar on the route's latency histogram, and stamp
// the flight-recorder entries for the request, the queue hand-off and
// the verdict summary.
func TestTraceParentPropagation(t *testing.T) {
	mon, logs := newTestModel(t)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	caller := telemetry.TraceContext{Trace: telemetry.NewTraceID(), Span: telemetry.NewSpanID()}
	traceHex := caller.Trace.String()

	info := createSession(t, ts, logs.Malicious)
	wire := EventSpecsOf(logs.Malicious.Events[:2*mon.Window()])

	blob, err := json.Marshal(EventBatch{Events: wire})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/sessions/"+info.ID+"/events", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", caller.TraceParent())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}

	echoed, ok := telemetry.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q unparseable", resp.Header.Get("traceparent"))
	}
	if echoed.Trace != caller.Trace {
		t.Fatalf("response trace %s, want caller's %s", echoed.Trace, caller.Trace)
	}
	if echoed.Span == caller.Span {
		t.Fatal("server reused the caller's span ID instead of minting a child")
	}

	// The route histogram holds the trace as an exemplar, filed under the
	// mux pattern (not the raw path with the session ID in it).
	route := "POST /v1/sessions/{id}/events"
	foundExemplar := false
	for _, m := range telemetry.Default().Snapshot() {
		if m.Name != "serve_http_seconds" || m.LabelValue != route {
			continue
		}
		for _, b := range m.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID == traceHex {
				foundExemplar = true
			}
		}
	}
	if !foundExemplar {
		t.Fatalf("no serve_http_seconds{route=%q} exemplar carries trace %s", route, traceHex)
	}

	// The flight recorder links the HTTP hop and the verdict summary
	// under the same trace. The verdict entry is recorded before the
	// reply, but the middleware records the HTTP hop only once the
	// handler returns, so the ring is read until both kinds are there or
	// the deadline passes.
	kinds := map[string]bool{}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		for _, e := range telemetry.Flight().Snapshot() {
			if e.Trace == traceHex {
				kinds[e.Kind] = true
			}
		}
		if kinds["http"] && kinds["verdict"] || time.Now().After(deadline) {
			break
		}
	}
	for _, want := range []string{"http", "verdict"} {
		if !kinds[want] {
			t.Errorf("no %q flight entry carries trace %s (got %v)", want, traceHex, kinds)
		}
	}
}

// TestTracedMintsWhenHeaderAbsent: requests without a traceparent still
// get a valid trace minted and echoed back.
func TestTracedMintsWhenHeaderAbsent(t *testing.T) {
	_, logs := newTestModel(t)
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", SessionSpecOf(logs.Benign, ""), nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	tc, ok := telemetry.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok || !tc.Valid() {
		t.Fatalf("minted traceparent %q invalid", resp.Header.Get("traceparent"))
	}

	// A malformed inbound header must not be echoed; a fresh trace is
	// minted instead.
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "garbage")
	r2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	tc2, ok := telemetry.ParseTraceParent(r2.Header.Get("traceparent"))
	if !ok || tc2.Trace == tc.Trace {
		t.Fatalf("malformed header handling wrong: %q", r2.Header.Get("traceparent"))
	}
}
