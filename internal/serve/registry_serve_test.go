package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/svm"
)

// newTestBundle returns the shared fixture's raw bundle bytes.
func newTestBundle(t testing.TB) []byte {
	t.Helper()
	newTestModel(t)
	return testBundleRaw
}

// Second distinct bundle (different hyperparameters, same window) so
// registry tests have a real challenger to shadow and promote.
var (
	altOnce sync.Once
	altErr  error
	altRaw  []byte
)

func altTestBundle(t *testing.T) []byte {
	t.Helper()
	_, logs := newTestModel(t)
	altOnce.Do(func() {
		td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
			Seed:        7,
			FixedParams: &svm.Params{Lambda: 2, Kernel: svm.RBFKernel{Sigma2: 4}},
		})
		if err != nil {
			altErr = err
			return
		}
		clf, err := td.Train()
		if err != nil {
			altErr = err
			return
		}
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			altErr = err
			return
		}
		altRaw = buf.Bytes()
	})
	if altErr != nil {
		t.Fatal(altErr)
	}
	return altRaw
}

// degradedBundle overwrites 16 bytes of raw with 0xff at the first of
// a run of offsets where core.InspectBundle then reports a degraded
// bundle: the bytes fell in the statistical section and made a count or
// a float unusable. It knows nothing of the bundle layout.
func degradedBundle(t testing.TB, raw []byte) []byte {
	t.Helper()
	for off := len(raw) / 8; off+16 <= len(raw); off += len(raw) / 32 {
		b := bytes.Clone(raw)
		copy(b[off:], bytes.Repeat([]byte{0xff}, 16))
		if info, err := core.InspectBundle(bytes.NewReader(b)); err == nil && info.Degraded {
			return b
		}
	}
	t.Fatal("no overwrite degrades the bundle")
	return nil
}

// writeBundle drops bundle bytes at a path for path-backed models.
func writeBundle(t *testing.T, path string, raw []byte) {
	t.Helper()
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServeReloadAllOrNothing is the regression test for partial
// reloads: when any bundle fails to load, no model — not even a healthy
// one — may be swapped, and the error must name every failing model.
func TestServeReloadAllOrNothing(t *testing.T) {
	raw := newTestBundle(t)
	dir := t.TempDir()
	pa := filepath.Join(dir, "a.model")
	pb := filepath.Join(dir, "b.model")
	writeBundle(t, pa, raw)
	writeBundle(t, pb, raw)

	s := newTestServer(t, Config{
		Models:    map[string]string{"a": pa, "b": pb},
		Preloaded: map[string]*core.Monitor{},
	})
	monA0 := s.models["a"].monitor()
	monB0 := s.models["b"].monitor()

	// One corrupt bundle aborts the whole reload; the healthy model keeps
	// its previous monitor too.
	writeBundle(t, pb, []byte("not a model"))
	err := s.Reload()
	if err == nil {
		t.Fatal("reload with a corrupt bundle reported success")
	}
	if !strings.Contains(err.Error(), `"b"`) || !strings.Contains(err.Error(), pb) {
		t.Errorf("reload error %q does not name the failing model and path", err)
	}
	if s.models["a"].monitor() != monA0 {
		t.Error("healthy model was swapped during an aborted reload")
	}
	if s.models["b"].monitor() != monB0 {
		t.Error("failing model was swapped during an aborted reload")
	}

	// Both corrupt: the aggregate error names each failure.
	writeBundle(t, pa, []byte("also not a model"))
	err = s.Reload()
	if err == nil {
		t.Fatal("reload with two corrupt bundles reported success")
	}
	for _, want := range []string{`"a"`, `"b"`, pa, pb, "no models swapped"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregate reload error %q lacks %q", err, want)
		}
	}

	// Both healthy again: the reload succeeds and swaps both.
	writeBundle(t, pa, raw)
	writeBundle(t, pb, raw)
	if err := s.Reload(); err != nil {
		t.Fatalf("reload over healthy bundles: %v", err)
	}
	if s.models["a"].monitor() == monA0 || s.models["b"].monitor() == monB0 {
		t.Error("successful reload did not swap the monitors")
	}
}

// TestServeV1BundleMigrationError checks the serving half of the
// format-migration contract: pointing leaps-serve at a bundle of an
// earlier format — a version-1 header, or an earlier build's gob stream —
// fails with the format error, which names format v3 and says to
// retrain, not with a generic load error.
func TestServeV1BundleMigrationError(t *testing.T) {
	for name, raw := range map[string][]byte{
		"version 1": append([]byte("LEAPS-MODEL"), 1),
		"gob":       []byte("\x3f\xff\x81\x03\x01\x01\x0eclassifierFile"),
	} {
		path := filepath.Join(t.TempDir(), "old.model")
		writeBundle(t, path, raw)
		_, err := NewServer(Config{Models: map[string]string{"default": path}})
		if err == nil {
			t.Fatalf("%s: an earlier bundle format was accepted by NewServer", name)
		}
		if !strings.Contains(err.Error(), "format v3") || !strings.Contains(err.Error(), "retrain") {
			t.Errorf("%s: NewServer error %q lacks the format and the retrain instruction", name, err)
		}
	}
}

// registryFixture publishes the champion and challenger bundles into a
// fresh store (champion auto-promoted) and returns both manifests.
func registryFixture(t *testing.T) (*registry.Store, registry.Manifest, registry.Manifest) {
	t.Helper()
	st, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	manA, err := st.Publish(bytes.NewReader(newTestBundle(t)), registry.TrainInfo{App: "vim.exe", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	manB, err := st.Publish(bytes.NewReader(altTestBundle(t)), registry.TrainInfo{App: "vim.exe", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return st, manA, manB
}

func TestServeModelsLifecycleAPI(t *testing.T) {
	mon, logs := newTestModel(t)
	st, manA, manB := registryFixture(t)
	s := newTestServer(t, Config{
		Registry:  st,
		Preloaded: map[string]*core.Monitor{},
		// An unreachable event floor so the ungated promotion attempt is
		// deterministically rejected.
		Gate: registry.Gate{MinEvents: 1 << 30},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info ModelsInfo
	resp := httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/models", nil, &info)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/models: status %d", resp.StatusCode)
	}
	if info.Model != "default" || info.Current != manA.ID || info.Loaded != manA.ID {
		t.Fatalf("models info %+v, want champion %s serving as default", info, manA.ID)
	}
	if len(info.Entries) != 2 || info.Shadow != nil {
		t.Fatalf("models info %+v, want 2 entries and no shadow", info)
	}

	// Shadowing the champion itself or an absent entry is rejected.
	if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/shadow",
		map[string]string{"id": manA.ID}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("shadowing the champion: status %d, want 400", resp.StatusCode)
	}
	if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/shadow",
		map[string]string{"id": "ffffffffffff"}, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("shadowing an absent entry: status %d, want 404", resp.StatusCode)
	}

	// Without shadow evidence, an unforced promotion is refused and the
	// refusal says why.
	var refusal struct {
		Error string `json:"error"`
	}
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/promote",
		map[string]any{"id": manB.ID}, &refusal)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(refusal.Error, "no shadow evidence") {
		t.Fatalf("evidence-free promote: status %d error %q, want 409 naming no shadow evidence",
			resp.StatusCode, refusal.Error)
	}

	var shadow ShadowStatus
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/shadow",
		map[string]string{"id": manB.ID}, &shadow)
	if resp.StatusCode != http.StatusCreated || shadow.ChallengerID != manB.ID {
		t.Fatalf("starting shadow: status %d info %+v", resp.StatusCode, shadow)
	}
	// A second shadow cannot start while one runs.
	if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/shadow",
		map[string]string{"id": manB.ID}, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("double shadow start: status %d, want 409", resp.StatusCode)
	}

	// Serve traffic on the champion; the session rides model "default",
	// which is registry-backed, so batches mirror to the challenger.
	mal := logs.Malicious
	n := 3 * mon.Window()
	cut := mon.Window() + 5
	want := referenceVerdicts(t, mon, mal, mal.Events[:n])
	sess := createSession(t, ts, mal)
	res := ingest(t, ts, sess.ID, EventSpecsOf(mal.Events[:cut]))
	got := append([]Verdict{}, res.Verdicts...)

	c := s.canary.Load()
	if c == nil {
		t.Fatal("no canary active after shadow start")
	}
	// A reply means its shadow offer is made, so Sync settles the
	// comparison.
	c.Sync()
	if st := c.Status(); st.Events != cut {
		t.Errorf("shadow replayed %d events, want %d", st.Events, cut)
	}
	info = ModelsInfo{} // Unmarshal keeps stale fields the response omits
	resp = httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/models", nil, &info)
	if resp.StatusCode != http.StatusOK || info.Shadow == nil || info.Shadow.ChallengerID != manB.ID {
		t.Fatalf("models info during shadow: status %d %+v", resp.StatusCode, info)
	}

	// The gate blocks promotion (event floor not met) with its reasons.
	var rejection struct {
		Error    string            `json:"error"`
		Decision registry.Decision `json:"decision"`
	}
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/promote",
		map[string]any{"id": manB.ID}, &rejection)
	if resp.StatusCode != http.StatusConflict || len(rejection.Decision.Reasons) == 0 {
		t.Fatalf("gated promote: status %d body %+v, want 409 with reasons", resp.StatusCode, rejection)
	}

	// Forced promotion bypasses the gate, repoints current, reloads.
	var tr registry.Transition
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/promote",
		map[string]any{"id": manB.ID, "force": true}, &tr)
	if resp.StatusCode != http.StatusOK || tr.From != manA.ID || tr.To != manB.ID {
		t.Fatalf("forced promote: status %d transition %+v", resp.StatusCode, tr)
	}
	info = ModelsInfo{} // Unmarshal keeps stale fields the response omits
	resp = httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/models", nil, &info)
	if resp.StatusCode != http.StatusOK || info.Loaded != manB.ID || info.Current != manB.ID {
		t.Fatalf("models info after promote: %+v, want %s serving", info, manB.ID)
	}
	if info.Shadow != nil {
		t.Error("canary still active after its challenger was promoted")
	}

	// Verdict continuity: the pre-promotion session still scores with the
	// monitor it was created under.
	res = ingest(t, ts, sess.ID, EventSpecsOf(mal.Events[cut:n]))
	got = append(got, res.Verdicts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("session verdicts changed across promotion (%d vs %d)", len(got), len(want))
	}

	// New sessions score with the promoted challenger.
	monB, err := core.LoadMonitor(bytes.NewReader(altTestBundle(t)))
	if err != nil {
		t.Fatal(err)
	}
	wantB := referenceVerdicts(t, monB, mal, mal.Events[:n])
	sessB := createSession(t, ts, mal)
	resB := ingest(t, ts, sessB.ID, EventSpecsOf(mal.Events[:n]))
	if !reflect.DeepEqual(resB.Verdicts, wantB) {
		t.Fatalf("post-promotion session does not score with the challenger (%d vs %d verdicts)",
			len(resB.Verdicts), len(wantB))
	}

	// Rollback with no explicit id returns to the previous champion.
	resp = httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/rollback", nil, &tr)
	if resp.StatusCode != http.StatusOK || tr.To != manA.ID {
		t.Fatalf("rollback: status %d transition %+v, want return to %s", resp.StatusCode, tr, manA.ID)
	}
	info = ModelsInfo{} // Unmarshal keeps stale fields the response omits
	resp = httpJSON(t, ts.Client(), "GET", ts.URL+"/v1/models", nil, &info)
	if resp.StatusCode != http.StatusOK || info.Loaded != manA.ID {
		t.Fatalf("models info after rollback: %+v, want %s serving", info, manA.ID)
	}
	if len(info.History) == 0 {
		t.Error("rollback left no history record")
	}

	// New sessions score with the champion again.
	sessA := createSession(t, ts, mal)
	if resA := ingest(t, ts, sessA.ID, EventSpecsOf(mal.Events[:n])); !reflect.DeepEqual(resA.Verdicts, want) {
		t.Fatalf("post-rollback session does not score as the champion (%d vs %d verdicts)",
			len(resA.Verdicts), len(want))
	}
}

// TestServeShadowDeterminism is the acceptance check that shadow
// evaluation never perturbs the serving path: the champion's verdict
// stream is byte-identical with a challenger attached and without one.
func TestServeShadowDeterminism(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	n := 4 * mon.Window()
	want := referenceVerdicts(t, mon, mal, mal.Events[:n])

	run := func(withShadow bool) []byte {
		st, _, manB := registryFixture(t)
		s := newTestServer(t, Config{
			Registry:  st,
			Preloaded: map[string]*core.Monitor{},
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if withShadow {
			resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/shadow",
				map[string]string{"id": manB.ID}, nil)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("starting shadow: status %d", resp.StatusCode)
			}
		}
		sess := createSession(t, ts, mal)
		wire := EventSpecsOf(mal.Events[:n])
		verdicts := []Verdict{}
		for i := 0; i < len(wire); i += 13 {
			end := i + 13
			if end > len(wire) {
				end = len(wire)
			}
			res := ingest(t, ts, sess.ID, wire[i:end])
			verdicts = append(verdicts, res.Verdicts...)
		}
		if withShadow {
			c := s.canary.Load()
			if c == nil {
				t.Fatal("canary vanished mid-run")
			}
			c.Sync()
			if cmp := c.Status(); cmp.Events != n || cmp.Diverged != 0 {
				t.Fatalf("shadow comparison %+v, want %d events and no divergence", cmp, n)
			}
		}
		if !reflect.DeepEqual(verdicts, want) {
			t.Fatalf("withShadow=%v: verdicts differ from reference (%d vs %d)",
				withShadow, len(verdicts), len(want))
		}
		blob, err := json.Marshal(verdicts)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}

	with := run(true)
	without := run(false)
	if !bytes.Equal(with, without) {
		t.Fatal("champion verdict stream differs with a shadow challenger attached")
	}
}

// TestServeShadowForgetsLeavingSessions makes a session leave the
// server by DELETE, export or eviction while a shadow runs, then opens
// a new session under the same ID. The leaver's challenger must be
// released, so the newcomer's shadow verdicts come from a fresh
// challenger stream: the comparison equals the one where the newcomer
// has an ID of its own, with no window divergence.
func TestServeShadowForgetsLeavingSessions(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	w := mon.Window()
	// The leaver stops mid-window, so a challenger that carried its
	// buffered half window into the newcomer would close one window more
	// than the champion does.
	leaver, newcomer := EventSpecsOf(mal.Events[:w+w/2]), EventSpecsOf(mal.Events[:2*w+w/2])

	shadowRun := func(leave string, reuse bool) registry.Comparison {
		st, _, manB := registryFixture(t)
		s := newTestServer(t, Config{
			Registry:    st,
			Preloaded:   map[string]*core.Monitor{},
			SpoolDir:    t.TempDir(),
			IdleTimeout: time.Hour,
		})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/models/shadow",
			map[string]string{"id": manB.ID}, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("starting shadow: status %d", resp.StatusCode)
		}
		open := func(id string) {
			spec := SessionSpecOf(mal, "")
			spec.ID = id
			if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", spec, nil); resp.StatusCode != http.StatusCreated {
				t.Fatalf("%s: create session %s: status %d", leave, id, resp.StatusCode)
			}
		}
		open("reused")
		ingest(t, ts, "reused", leaver)
		switch leave {
		case "delete":
			if resp := httpJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/sessions/reused", nil, nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: status %d", resp.StatusCode)
			}
		case "export":
			if resp := httpJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/reused/export", nil, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("export: status %d", resp.StatusCode)
			}
		case "evict":
			s.evictIdle(time.Now().Add(time.Hour))
			// The spooled envelope holds the ID until it is deleted.
			if resp := httpJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/sessions/reused", nil, nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete after eviction: status %d", resp.StatusCode)
			}
		}
		id := "newcomer"
		if reuse {
			id = "reused"
		}
		open(id)
		ingest(t, ts, id, newcomer)
		c := s.canary.Load()
		c.Sync()
		cmp := c.Status()
		cmp.StartedAt = time.Time{}
		return cmp
	}

	for _, leave := range []string{"delete", "export", "evict"} {
		got, want := shadowRun(leave, true), shadowRun(leave, false)
		if got.Diverged != 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: reused ID's shadow comparison %+v, want a fresh challenger stream's %+v", leave, got, want)
		}
	}
}
