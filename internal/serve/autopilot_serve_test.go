package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/registry"
)

// apGate is the promotion policy the autopilot integration tests run
// under. The thresholds are calibrated to the shared test dataset: on
// mixed traffic the challenger agrees with the champion on every
// champion-benign window (TPR 1.0) and clears roughly a tenth of the
// champion-flagged ones (FPR ~0.11), so 0.5/0.5 passes with wide margin
// while still exercising the real gate arithmetic.
func apGate() registry.Gate {
	return registry.Gate{MinEvents: 200, MinTPR: 0.5, MaxFPR: 0.5}
}

func apQuietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// apFixture is one serve+autopilot deployment: a registry seeded with
// the champion, a spool for session continuity across restarts, and a
// journal directory the controller resumes from.
type apFixture struct {
	store    *registry.Store
	stateDir string
	spoolDir string
	champion registry.Manifest
	trainer  autopilot.Trainer
}

func newAPFixture(t *testing.T) *apFixture {
	t.Helper()
	st, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := st.Publish(bytes.NewReader(newTestBundle(t)), registry.TrainInfo{App: "vim.exe", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	candidate := altTestBundle(t)
	return &apFixture{
		store:    st,
		stateDir: t.TempDir(),
		spoolDir: t.TempDir(),
		champion: man,
		trainer: autopilot.TrainerFunc(func(ctx context.Context) ([]byte, registry.TrainInfo, error) {
			return candidate, registry.TrainInfo{App: "vim.exe", Seed: 9}, nil
		}),
	}
}

// controller builds a controller over the fixture's journal and binds it
// to the server. Timings are tightened for test speed; determinism does
// not depend on them.
func (fx *apFixture) controller(t *testing.T, s *Server) *autopilot.Controller {
	t.Helper()
	ctl, err := autopilot.New(autopilot.Config{
		Store:         fx.store,
		Trainer:       fx.trainer,
		Gate:          apGate(),
		StateDir:      fx.stateDir,
		TriggerEvents: 1,
		ShadowTimeout: 30 * time.Second,
		ShadowPoll:    2 * time.Millisecond,
		BackoffBase:   time.Millisecond,
		BackoffMax:    4 * time.Millisecond,
		Logger:        apQuietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Stop)
	ctl.Bind(s)
	return ctl
}

func (fx *apFixture) server(t *testing.T, ap Autopilot) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, Config{
		Registry:  fx.store,
		Preloaded: map[string]*core.Monitor{},
		SpoolDir:  fx.spoolDir,
		Gate:      apGate(),
		Autopilot: ap,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// runCycleWithTraffic drives one controller cycle while a background
// session pumps mixed traffic through the server, feeding the shadow
// canary the evidence the gate needs. It returns the recovered crash if
// a fault-injection point fired mid-cycle.
func runCycleWithTraffic(t *testing.T, ts *httptest.Server, ctl *autopilot.Controller,
	wire []EventSpec) (res autopilot.Result, err error, crash *faultinject.CrashPanic) {
	t.Helper()
	_, logs := newTestModel(t)
	pump := createSession(t, ts, logs.Mixed)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		client := ts.Client()
		url := fmt.Sprintf("%s/v1/sessions/%s/events", ts.URL, pump.ID)
		for i := 0; ; i = (i + 10) % len(wire) {
			select {
			case <-stop:
				return
			default:
			}
			end := i + 10
			if end > len(wire) {
				end = len(wire)
			}
			blob, _ := json.Marshal(EventBatch{Events: wire[i:end]})
			// Failures are expected once the cycle crashes or the server
			// shuts down; the pump only exists to generate evidence.
			if resp, err := client.Post(url, "application/json", bytes.NewReader(blob)); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	defer func() { close(stop); <-done }()
	func() {
		defer func() { crash = faultinject.Recover(recover()) }()
		res, err = ctl.RunCycle()
	}()
	return res, err, crash
}

// apOutcome is everything a scenario run observes that must be identical
// between a crash/resume run and an uninterrupted one.
type apOutcome struct {
	Pre      []Verdict // pinned session, before the cycle
	Post     []Verdict // pinned session, after promotion
	Fresh    []Verdict // fresh post-promotion session
	Promoted string
	Current  string
}

// runAutopilotScenario serves traffic, runs one retraining cycle —
// optionally killed at crashPoint and resumed in a "new process" (new
// server restored from the spool, new controller over the same journal)
// — and returns the externally observable outcome. The spooled compare
// session restores pinned to the original champion whether or not the
// registry pointer moved before the crash, so its verdict stream
// continues byte-identically either way.
func runAutopilotScenario(t *testing.T, crashPoint string) apOutcome {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	n := 4 * mon.Window()
	cut := 2*mon.Window() + 5
	mixedWire := EventSpecsOf(logs.Mixed.Events[:40*mon.Window()])

	fx := newAPFixture(t)
	s, ts := fx.server(t, nil)
	sess := createSession(t, ts, mal)
	out := apOutcome{Pre: ingest(t, ts, sess.ID, EventSpecsOf(mal.Events[:cut])).Verdicts}

	ctl := fx.controller(t, s)
	if crashPoint != "" {
		faultinject.ArmCrash(crashPoint)
		_, _, crash := runCycleWithTraffic(t, ts, ctl, mixedWire)
		if crash == nil || crash.Point != crashPoint {
			t.Fatalf("recovered crash %+v, want %s", crash, crashPoint)
		}
		faultinject.Reset()
		// "Process death": stop the controller, checkpoint every session
		// to the spool, and bring up a fresh server and controller.
		ctl.Stop()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := s.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown after crash: %v", err)
		}
		cancel()
		ts.Close()
		s, ts = fx.server(t, nil)
		ctl = fx.controller(t, s)
		if st := ctl.Snapshot(); !st.Resuming {
			t.Fatal("restarted controller sees no interrupted cycle")
		}
	}
	res, err, crash := runCycleWithTraffic(t, ts, ctl, mixedWire)
	if crash != nil {
		t.Fatalf("unexpected crash at %s", crash.Point)
	}
	if err != nil {
		t.Fatalf("cycle: %v", err)
	}
	if res.Outcome != autopilot.OutcomePromoted || res.Cycle != 1 {
		t.Fatalf("cycle result %+v, want cycle 1 promoted", res)
	}
	out.Promoted = res.Entry

	out.Post = ingest(t, ts, sess.ID, EventSpecsOf(mal.Events[cut:n])).Verdicts
	fresh := createSession(t, ts, mal)
	out.Fresh = ingest(t, ts, fresh.ID, EventSpecsOf(mal.Events[:n])).Verdicts

	ptr, ok, err := fx.store.Current()
	if err != nil || !ok {
		t.Fatalf("current pointer: ok=%v err=%v", ok, err)
	}
	out.Current = ptr.ID
	if out.Current == fx.champion.ID {
		t.Fatal("cycle promoted but the champion still serves")
	}
	return out
}

// TestServeAutopilotCrashMatrixByteIdenticalVerdicts is the end-to-end
// acceptance check: a retraining cycle killed at representative crash
// points — mid-publish, mid-shadow, mid-promotion — and resumed in a
// fresh process converges to the same promoted model and byte-identical
// serving verdicts as a run that was never interrupted.
func TestServeAutopilotCrashMatrixByteIdenticalVerdicts(t *testing.T) {
	mon, logs := newTestModel(t)
	base := runAutopilotScenario(t, "")

	// Anchor the baseline itself: the pinned session's full stream is the
	// original champion's reference verdicts, the fresh session's is the
	// promoted challenger's.
	n := 4 * mon.Window()
	wantPinned := referenceVerdicts(t, mon, logs.Malicious, logs.Malicious.Events[:n])
	if got := append(append([]Verdict{}, base.Pre...), base.Post...); !reflect.DeepEqual(got, wantPinned) {
		t.Fatalf("baseline pinned stream diverges from champion reference (%d vs %d verdicts)",
			len(got), len(wantPinned))
	}
	monB, err := core.LoadMonitor(bytes.NewReader(altTestBundle(t)))
	if err != nil {
		t.Fatal(err)
	}
	wantFresh := referenceVerdicts(t, monB, logs.Malicious, logs.Malicious.Events[:n])
	if !reflect.DeepEqual(base.Fresh, wantFresh) {
		t.Fatalf("baseline fresh stream diverges from challenger reference (%d vs %d verdicts)",
			len(base.Fresh), len(wantFresh))
	}
	baseBlob, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}

	points := []string{
		"registry/publish/manifest",
		"autopilot/journal/published",
		"autopilot/journal/shadow-started",
		"autopilot/journal/evaluated",
		"autopilot/mid-promotion",
		"autopilot/journal/cycle-done",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			got := runAutopilotScenario(t, point)
			if got.Promoted != base.Promoted || got.Current != base.Current {
				t.Fatalf("converged to %s (current %s), baseline %s (current %s)",
					got.Promoted, got.Current, base.Promoted, base.Current)
			}
			blob, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, baseBlob) {
				t.Errorf("crash at %s: outcome differs from uninterrupted run\n got: %s\nwant: %s",
					point, blob, baseBlob)
			}
		})
	}
}

// TestServeAutopilotBreakerKeepsChampionServing trips the circuit
// breaker with a persistently failing trainer and checks the failure
// domain: retraining stops, the API reports the open breaker, and the
// serving path keeps answering with the champion's exact verdicts.
func TestServeAutopilotBreakerKeepsChampionServing(t *testing.T) {
	mon, logs := newTestModel(t)
	fx := newAPFixture(t)
	fx.trainer = autopilot.TrainerFunc(func(ctx context.Context) ([]byte, registry.TrainInfo, error) {
		return nil, registry.TrainInfo{}, fmt.Errorf("training data unavailable")
	})

	ctl, err := autopilot.New(autopilot.Config{
		Store:            fx.store,
		Trainer:          fx.trainer,
		Gate:             apGate(),
		StateDir:         fx.stateDir,
		TriggerEvents:    1,
		StageRetries:     -1, // no retries: each cycle fails fast
		BackoffBase:      time.Millisecond,
		BackoffMax:       2 * time.Millisecond,
		BreakerThreshold: 2,
		Logger:           apQuietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Stop)
	s, ts := fx.server(t, ctl)
	ctl.Bind(s)

	for i := 0; i < 2; i++ {
		if res, err := ctl.RunCycle(); err == nil || res.Outcome != autopilot.OutcomeFailed {
			t.Fatalf("cycle %d: %+v err=%v, want failed", i, res, err)
		}
	}
	if _, err := ctl.RunCycle(); err != autopilot.ErrBreakerOpen {
		t.Fatalf("post-trip cycle error = %v, want ErrBreakerOpen", err)
	}

	var st autopilot.Status
	resp := httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/autopilot", nil, &st)
	if resp.StatusCode != http.StatusOK || !st.BreakerOpen || st.Phase != "breaker-open" {
		t.Fatalf("GET /v1/autopilot: status %d %+v, want open breaker", resp.StatusCode, st)
	}
	if st.ConsecutiveFailures != 2 || st.Cycles.Failed != 2 {
		t.Errorf("status %+v, want 2 consecutive failures", st)
	}

	// The serving path is unaffected: champion verdicts, exact.
	mal := logs.Malicious
	n := 2 * mon.Window()
	sess := createSession(t, ts, mal)
	got := ingest(t, ts, sess.ID, EventSpecsOf(mal.Events[:n])).Verdicts
	if want := referenceVerdicts(t, mon, mal, mal.Events[:n]); !reflect.DeepEqual(got, want) {
		t.Fatal("serving verdicts changed while the breaker is open")
	}
	if ptr, ok, _ := fx.store.Current(); !ok || ptr.ID != fx.champion.ID {
		t.Errorf("current entry %+v, want the champion %s untouched", ptr, fx.champion.ID)
	}

	// Resume over the API closes the breaker.
	st = autopilot.Status{}
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/autopilot/resume", nil, &st)
	if resp.StatusCode != http.StatusOK || st.BreakerOpen || st.ConsecutiveFailures != 0 {
		t.Fatalf("POST resume: status %d %+v, want closed breaker", resp.StatusCode, st)
	}
}

// TestServeAutopilotPauseResumeAPI drives the operator pause lifecycle
// over HTTP and checks it gates cycle admission.
func TestServeAutopilotPauseResumeAPI(t *testing.T) {
	fx := newAPFixture(t)
	ctl, err := autopilot.New(autopilot.Config{
		Store:    fx.store,
		Trainer:  fx.trainer,
		Gate:     apGate(),
		StateDir: fx.stateDir,
		Logger:   apQuietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctl.Stop)
	s, ts := fx.server(t, ctl)
	ctl.Bind(s)

	var st autopilot.Status
	resp := httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/autopilot", nil, &st)
	if resp.StatusCode != http.StatusOK || st.Paused || st.Phase != "idle" {
		t.Fatalf("GET /v1/autopilot: status %d %+v, want idle", resp.StatusCode, st)
	}

	st = autopilot.Status{}
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/autopilot/pause",
		map[string]string{"reason": "maintenance window"}, &st)
	if resp.StatusCode != http.StatusOK || !st.Paused || st.PauseReason != "maintenance window" {
		t.Fatalf("POST pause: status %d %+v", resp.StatusCode, st)
	}
	if _, err := ctl.RunCycle(); err != autopilot.ErrPaused {
		t.Fatalf("paused cycle error = %v, want ErrPaused", err)
	}

	st = autopilot.Status{}
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/autopilot/resume", nil, &st)
	if resp.StatusCode != http.StatusOK || st.Paused {
		t.Fatalf("POST resume: status %d %+v", resp.StatusCode, st)
	}
}

// TestRetryAfterHint pins the adaptive 429 backoff hint's shape.
func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		queued, depth int
		want          string
	}{
		{0, 8192, "1"},    // empty queue: retry soon
		{2048, 8192, "2"}, // quarter full
		{4096, 8192, "3"},
		{8192, 8192, "5"}, // at depth: back off harder
		{100, 0, "1"},     // unknown depth: legacy hint
	}
	for _, tc := range cases {
		if got := retryAfterHint(tc.queued, tc.depth); got != tc.want {
			t.Errorf("retryAfterHint(%d, %d) = %q, want %q", tc.queued, tc.depth, got, tc.want)
		}
	}
}
