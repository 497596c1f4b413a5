package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/svm"
	"repro/internal/trace"
)

// testModel caches one trained monitor and its dataset across tests;
// training dominates test time and every test can share the bundle.
var (
	testModelOnce sync.Once
	testMonitor   *core.Monitor
	testBundleRaw []byte
	testLogs      *dataset.Logs
	testModelErr  error
)

func newTestModel(t testing.TB) (*core.Monitor, *dataset.Logs) {
	t.Helper()
	testModelOnce.Do(func() {
		spec, err := dataset.ByName("vim_reverse_tcp")
		if err != nil {
			testModelErr = err
			return
		}
		logs, err := spec.Generate(7)
		if err != nil {
			testModelErr = err
			return
		}
		td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
			Seed:        7,
			FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
		})
		if err != nil {
			testModelErr = err
			return
		}
		clf, err := td.Train()
		if err != nil {
			testModelErr = err
			return
		}
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			testModelErr = err
			return
		}
		testBundleRaw = append([]byte(nil), buf.Bytes()...)
		testMonitor, testModelErr = core.LoadMonitor(&buf)
		testLogs = logs
	})
	if testModelErr != nil {
		t.Fatal(testModelErr)
	}
	return testMonitor, testLogs
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	mon, _ := newTestModel(t)
	if cfg.Preloaded == nil {
		cfg.Preloaded = map[string]*core.Monitor{"default": mon}
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// referenceVerdicts scores events through a plain StreamDetector.
func referenceVerdicts(t *testing.T, mon *core.Monitor, log *trace.Log, events []trace.Event) []Verdict {
	t.Helper()
	det, err := mon.Stream(log.Modules)
	if err != nil {
		t.Fatal(err)
	}
	out := []Verdict{}
	for _, e := range events {
		d, err := det.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if d != nil {
			out = append(out, verdictOf(*d))
		}
	}
	return out
}

// httpJSON drives one request and decodes the JSON response into out.
func httpJSON(t *testing.T, client *http.Client, method, url string, body, out any) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(blob) > 0 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, blob, err)
		}
	}
	return resp
}

// createSession opens a session for the test log and returns its info.
func createSession(t *testing.T, ts *httptest.Server, log *trace.Log) SessionInfo {
	t.Helper()
	var info SessionInfo
	resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", SessionSpecOf(log, ""), &info)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	if info.ID == "" || info.Window <= 0 {
		t.Fatalf("create session: info %+v", info)
	}
	return info
}

// ingest posts one batch of wire events and returns the result.
func ingest(t *testing.T, ts *httptest.Server, id string, events []EventSpec) IngestResult {
	t.Helper()
	var res IngestResult
	url := fmt.Sprintf("%s/v1/sessions/%s/events", ts.URL, id)
	resp := httpJSON(t, ts.Client(), "POST", url, EventBatch{Events: events}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	return res
}

func TestServeSessionLifecycle(t *testing.T) {
	mon, logs := newTestModel(t)
	s := newTestServer(t, Config{Parallel: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	mal := logs.Malicious
	n := 4 * mon.Window()
	events := mal.Events[:n]
	want := referenceVerdicts(t, mon, mal, events)

	info := createSession(t, ts, mal)
	if info.Model != "default" || info.App != mal.App || info.Degraded {
		t.Fatalf("session info %+v", info)
	}

	// Stream in uneven batches; verdict order must match the reference.
	wire := EventSpecsOf(events)
	got := []Verdict{}
	for i := 0; i < len(wire); {
		end := i + mon.Window()/2 + 1
		if end > len(wire) {
			end = len(wire)
		}
		res := ingest(t, ts, info.ID, wire[i:end])
		if res.Skipped != 0 {
			t.Fatalf("batch [%d:%d] skipped %d events", i, end, res.Skipped)
		}
		got = append(got, res.Verdicts...)
		i = end
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed verdicts differ from reference: %d vs %d", len(got), len(want))
	}

	var state SessionInfo
	resp := httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+info.ID+"?checkpoint=1", nil, &state)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: status %d", resp.StatusCode)
	}
	if state.Consumed != n || state.Verdicts != len(want) || state.Checkpoint == "" {
		t.Fatalf("session state %+v, want consumed=%d verdicts=%d with checkpoint", state, n, len(want))
	}

	resp = httpJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/sessions/"+info.ID, nil, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp = httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+info.ID, nil, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", resp.StatusCode)
	}

	for _, probe := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := ts.Client().Get(ts.URL + probe)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", probe, resp.StatusCode)
		}
	}
}

func TestServeDeterministicAcrossWorkerCounts(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	const sessions = 4
	n := 3 * mon.Window()

	want := make([][]Verdict, sessions)
	for i := range want {
		want[i] = referenceVerdicts(t, mon, mal, mal.Events[i:i+n])
	}

	for _, workers := range []int{1, 8} {
		s := newTestServer(t, Config{Parallel: workers, TurnEvents: 7})
		ts := httptest.NewServer(s.Handler())
		got := make([][]Verdict, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				info := createSession(t, ts, mal)
				wire := EventSpecsOf(mal.Events[i : i+n])
				verdicts := []Verdict{}
				for j := 0; j < len(wire); j += 5 {
					end := j + 5
					if end > len(wire) {
						end = len(wire)
					}
					res := ingest(t, ts, info.ID, wire[j:end])
					verdicts = append(verdicts, res.Verdicts...)
				}
				got[i] = verdicts
			}(i)
		}
		wg.Wait()
		ts.Close()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d session %d: verdicts differ from reference (%d vs %d)",
					workers, i, len(got[i]), len(want[i]))
			}
		}
	}
}

func TestServeBackpressure(t *testing.T) {
	_, logs := newTestModel(t)
	mal := logs.Malicious
	s := newTestServer(t, Config{QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	info := createSession(t, ts, mal)
	wire := EventSpecsOf(mal.Events[:8]) // more events than the queue admits
	url := fmt.Sprintf("%s/v1/sessions/%s/events", ts.URL, info.ID)
	var apiErr apiError
	resp := httpJSON(t, ts.Client(), "POST", url, EventBatch{Events: wire}, &apiErr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversubscribed batch: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	if !strings.Contains(apiErr.Error, "queue full") {
		t.Errorf("429 body %q does not explain the queue", apiErr.Error)
	}

	// A batch that fits still flows.
	if res := ingest(t, ts, info.ID, wire[:4]); res.Consumed != 4 {
		t.Fatalf("in-bounds batch consumed %d, want 4", res.Consumed)
	}
}

func TestServeShutdownSpoolsAndRestores(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	spool := t.TempDir()
	n := 4 * mon.Window()
	cut := mon.Window() + 3
	want := referenceVerdicts(t, mon, mal, mal.Events[:n])

	s1 := newTestServer(t, Config{SpoolDir: spool})
	ts1 := httptest.NewServer(s1.Handler())
	info := createSession(t, ts1, mal)
	res := ingest(t, ts1, info.ID, EventSpecsOf(mal.Events[:cut]))
	got := append([]Verdict{}, res.Verdicts...)

	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if ids := spooledEnvelopes(t, spool); len(ids) != 1 || ids[0] != info.ID {
		t.Fatalf("spool after shutdown: %v, want [%s]", ids, info.ID)
	}

	// A second server over the same spool restores the session and the
	// combined verdict stream is identical to the uninterrupted run.
	s2 := newTestServer(t, Config{SpoolDir: spool})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var state SessionInfo
	resp := httpJSON(t, ts2.Client(), "GET", ts2.URL+"/v1/sessions/"+info.ID, nil, &state)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restored session not addressable: status %d", resp.StatusCode)
	}
	if state.Consumed != cut || state.Verdicts != len(got) {
		t.Fatalf("restored state %+v, want consumed=%d verdicts=%d", state, cut, len(got))
	}
	res = ingest(t, ts2, info.ID, EventSpecsOf(mal.Events[cut:n]))
	got = append(got, res.Verdicts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored verdict stream differs from uninterrupted run (%d vs %d)", len(got), len(want))
	}
	if ids := spooledEnvelopes(t, spool); len(ids) != 0 {
		t.Errorf("spool entries not consumed by restore: %v", ids)
	}
}

func TestServeEvictionAndLazyRestore(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	spool := t.TempDir()
	n := 3 * mon.Window()
	cut := mon.Window() + 1
	want := referenceVerdicts(t, mon, mal, mal.Events[:n])

	s := newTestServer(t, Config{SpoolDir: spool})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	info := createSession(t, ts, mal)
	res := ingest(t, ts, info.ID, EventSpecsOf(mal.Events[:cut]))
	got := append([]Verdict{}, res.Verdicts...)

	// Eviction rightly skips a session with a turn in flight, so evictNow
	// waits for the turn to end before forcing the janitor's decision.
	evictNow(t, s)
	if ids := spooledEnvelopes(t, spool); len(ids) != 1 || ids[0] != info.ID {
		t.Fatalf("spool after eviction: %v, want [%s]", ids, info.ID)
	}

	// Next touch lazily restores and the stream continues seamlessly.
	res = ingest(t, ts, info.ID, EventSpecsOf(mal.Events[cut:n]))
	got = append(got, res.Verdicts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-eviction verdicts differ from uninterrupted run (%d vs %d)", len(got), len(want))
	}
}

func TestServeRequestValidation(t *testing.T) {
	_, logs := newTestModel(t)
	mal := logs.Malicious
	s := newTestServer(t, Config{MaxBodyBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown model.
	spec := SessionSpecOf(mal, "no-such-model")
	if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400", resp.StatusCode)
	}
	// Unknown module kind.
	bad := SessionSpecOf(mal, "")
	bad.Modules[0].Kind = "mystery"
	if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", bad, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad module kind: status %d, want 400", resp.StatusCode)
	}
	// Unknown event type.
	info := createSession(t, ts, mal)
	url := fmt.Sprintf("%s/v1/sessions/%s/events", ts.URL, info.ID)
	batch := EventBatch{Events: []EventSpec{{Type: "Nonsense"}}}
	if resp := httpJSON(t, ts.Client(), "POST", url, batch, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad event type: status %d, want 400", resp.StatusCode)
	}
	// A batch setting an event field twice, and a truncated batch.
	for _, body := range []string{`{"events":[{"type":"FileRead","pid":1,"PID":2}]}`, `{"events":[`} {
		resp, err := ts.Client().Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Oversized body.
	big := EventBatch{Events: EventSpecsOf(mal.Events)}
	s.cfg.MaxBodyBytes = 64
	if resp := httpJSON(t, ts.Client(), "POST", url, big, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	s.cfg.MaxBodyBytes = 1 << 20
	// Unknown session.
	if resp := httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/nope", nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
}

func TestWireEventRoundTrip(t *testing.T) {
	_, logs := newTestModel(t)
	mal := logs.Malicious
	spec := SessionSpecOf(mal, "")
	mm, err := spec.ModuleMap()
	if err != nil {
		t.Fatal(err)
	}
	if mm.AppName() != mal.App {
		t.Fatalf("round-tripped app %q, want %q", mm.AppName(), mal.App)
	}
	for i, es := range EventSpecsOf(mal.Events[:50]) {
		ev, err := es.Event(mm)
		if err != nil {
			t.Fatal(err)
		}
		orig := mal.Events[i]
		if ev.Type != orig.Type || ev.PID != orig.PID || ev.TID != orig.TID {
			t.Fatalf("event %d: %+v round-tripped to %+v", i, orig, ev)
		}
		if len(ev.Stack) != len(orig.Stack) {
			t.Fatalf("event %d: stack depth %d, want %d", i, len(ev.Stack), len(orig.Stack))
		}
		for j := range ev.Stack {
			if ev.Stack[j].Addr != orig.Stack[j].Addr ||
				ev.Stack[j].Module != orig.Stack[j].Module ||
				ev.Stack[j].Function != orig.Stack[j].Function {
				t.Fatalf("event %d frame %d: %+v vs %+v", i, j, ev.Stack[j], orig.Stack[j])
			}
		}
	}
}
