package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/internal/svm"
)

// buildModel trains a small model, writes it to dir, and returns its
// path plus the dataset's logs for driving sessions.
func buildModel(t *testing.T, dir string) (string, *dataset.Logs) {
	t.Helper()
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 2000, 2000, 1000
	logs, err := spec.Generate(9)
	if err != nil {
		t.Fatal(err)
	}
	td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
		Seed:        1,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "m.model")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, logs
}

// post marshals body, POSTs it and returns the response's status,
// headers and body.
func post(t *testing.T, url string, body any) (int, http.Header, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, reply
}

// postJSON POSTs body and decodes the response into out.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	code, _, reply := post(t, url, body)
	if err := json.Unmarshal(reply, out); err != nil {
		t.Fatalf("POST %s: decoding %q: %v", url, reply, err)
	}
	return code
}

// startRun boots run with args on a free port and returns its base URL
// and the channel run's result arrives on.
func startRun(t *testing.T, args ...string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append(args, "-addr", "127.0.0.1:0", "-quiet"), ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, done
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
		return "", nil
	}
}

// stopRun sends the process SIGTERM and requires run to shut down
// cleanly. Every run in the process catches the signal, so a test keeps
// at most one running.
func stopRun(t *testing.T, done <-chan error) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// TestRunServesScoresAndCheckpoints drives leaps-serve end to end: the
// health probes answer, a malicious batch raises a malicious verdict,
// SIGTERM spools the session, a restarted server restores it and answers
// its next batch byte for byte as a never-interrupted server does, and a
// session queue smaller than a batch answers 429 with Retry-After.
func TestRunServesScoresAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	model, logs := buildModel(t, dir)
	spool := filepath.Join(dir, "spool")
	mal := logs.Malicious
	spec := serve.SessionSpecOf(mal, "")

	// The uninterrupted reference serves the same bundle in process: a
	// second run would catch the SIGTERMs too.
	ref, err := serve.NewServer(serve.Config{
		Models: map[string]string{"default": model},
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	var refInfo serve.SessionInfo
	if code := postJSON(t, refTS.URL+"/v1/sessions", spec, &refInfo); code != http.StatusCreated {
		t.Fatalf("reference create session: status %d", code)
	}
	refURL := fmt.Sprintf("%s/v1/sessions/%s/events", refTS.URL, refInfo.ID)

	base, done := startRun(t, "-model", model, "-spool", spool)
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + probe)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (err %v)", probe, resp.StatusCode, err)
		}
		var ready struct {
			Ready bool `json:"ready"`
		}
		if probe == "/readyz" && (json.Unmarshal(body, &ready) != nil || !ready.Ready) {
			t.Fatalf("/readyz answered %q, want ready", body)
		}
	}

	var info serve.SessionInfo
	if code := postJSON(t, base+"/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	n := 3 * info.Window
	var res serve.IngestResult
	url := fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID)
	batchA := serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[:n])}
	if code := postJSON(t, url, batchA, &res); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if res.Consumed != n || len(res.Verdicts) == 0 {
		t.Fatalf("ingest result %+v, want %d consumed with verdicts", res, n)
	}
	if !slices.ContainsFunc(res.Verdicts, func(v serve.Verdict) bool { return v.Malicious }) {
		t.Fatalf("malicious log raised no malicious verdict: %+v", res.Verdicts)
	}
	if code, _, _ := post(t, refURL, batchA); code != http.StatusOK {
		t.Fatalf("reference ingest: status %d", code)
	}

	// SIGTERM checkpoints the session and exits cleanly.
	stopRun(t, done)
	spooled, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil || len(spooled) != 1 || filepath.Base(spooled[0]) != info.ID+".ckpt" {
		t.Fatalf("spool after SIGTERM: %v (err %v), want one %s.ckpt envelope", spooled, err, info.ID)
	}
	var ex serve.SessionExport
	if blob, err := os.ReadFile(spooled[0]); err != nil || json.Unmarshal(blob, &ex) != nil || ex.ID != info.ID {
		t.Fatalf("spooled envelope for %s unreadable or names %q (err %v)", info.ID, ex.ID, err)
	}

	// A restarted server restores the session and scores its next batch
	// exactly as the uninterrupted reference does.
	base, done = startRun(t, "-model", model, "-spool", spool)
	resp, err := http.Get(base + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var state serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || state.ID != info.ID || state.Consumed != n {
		t.Fatalf("restored session: status %d state %+v, want %s with consumed=%d", resp.StatusCode, state, info.ID, n)
	}
	url = fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID)
	batchB := serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[n : n+2*info.Window])}
	code, _, got := post(t, url, batchB)
	if code != http.StatusOK {
		t.Fatalf("post-restore ingest: status %d", code)
	}
	if code, _, want := post(t, refURL, batchB); code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("restored session answered\n%s\nthe uninterrupted reference (status %d)\n%s", got, code, want)
	}
	if err := json.Unmarshal(got, &res); err != nil || len(res.Verdicts) != 2 {
		t.Fatalf("post-restore reply %q, want 2 verdicts (err %v)", got, err)
	}
	stopRun(t, done)

	// A session queue of 64 events refuses a batch one event larger.
	base, done = startRun(t, "-model", model, "-queue-depth", "64")
	if code := postJSON(t, base+"/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	url = fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID)
	code, header, _ := post(t, url, serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[:65])})
	if code != http.StatusTooManyRequests || header.Get("Retry-After") == "" {
		t.Fatalf("batch past -queue-depth: status %d, Retry-After %q; want 429 with a hint", code, header.Get("Retry-After"))
	}
	stopRun(t, done)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Error("missing -model accepted")
	}
	if err := run([]string{"-model", "/no/such.model", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Error("unreadable model accepted")
	}
	if err := run([]string{"-model", "a.model", "-model", "b.model", "-addr", "127.0.0.1:0"}, nil); err == nil {
		t.Error("duplicate default model name accepted")
	}
	// -autopilot-lambda and -autopilot-sigma2 come together and pass
	// svm's parameter check; the flags are checked before the server
	// starts.
	for _, flags := range [][]string{
		{"-autopilot-lambda", "8"},
		{"-autopilot-sigma2", "2"},
		{"-autopilot-sigma2", "-1"},
		{"-autopilot-lambda", "0", "-autopilot-sigma2", "2"},
		{"-autopilot-lambda", "8", "-autopilot-sigma2", "0"},
		{"-autopilot-lambda", "Inf", "-autopilot-sigma2", "Inf"},
		{"-autopilot-lambda", "NaN", "-autopilot-sigma2", "2"},
		{"-autopilot-lambda", "8", "-autopilot-sigma2", "-Inf"},
	} {
		err := run(append([]string{"-model", "/no/such.model", "-addr", "127.0.0.1:0"}, flags...), nil)
		if err == nil || !strings.Contains(err.Error(), "-autopilot-lambda") {
			t.Errorf("%v: error %v, want an -autopilot-lambda/-autopilot-sigma2 usage error", flags, err)
		}
	}
}

func TestModelFlags(t *testing.T) {
	m := modelFlags{}
	if err := m.Set("plain.model"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("extra=second.model"); err != nil {
		t.Fatal(err)
	}
	if m["default"] != "plain.model" || m["extra"] != "second.model" {
		t.Fatalf("modelFlags = %v", m)
	}
	for _, bad := range []string{"", "=path", "name="} {
		if err := m.Set(bad); err == nil {
			t.Errorf("value %q accepted", bad)
		}
	}
	if err := m.Set("other=plain.model"); err != nil {
		t.Error("distinct name for same path rejected")
	}
	if err := m.Set("extra=dup.model"); err == nil {
		t.Error("duplicate name accepted")
	}
}
