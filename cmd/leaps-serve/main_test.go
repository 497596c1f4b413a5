package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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

// postJSON marshals body and POSTs it, decoding the response into out.
func postJSON(t *testing.T, url string, body, out any) int {
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestRunServesScoresAndCheckpoints(t *testing.T) {
	dir := t.TempDir()
	model, logs := buildModel(t, dir)
	spool := filepath.Join(dir, "spool")
	mal := logs.Malicious

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-model", model, "-addr", "127.0.0.1:0", "-spool", spool, "-quiet"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("server exited before ready: %v", err)
	}

	var info serve.SessionInfo
	if code := postJSON(t, base+"/v1/sessions", serve.SessionSpecOf(mal, ""), &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	n := 3 * info.Window
	var res serve.IngestResult
	url := fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID)
	batch := serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[:n])}
	if code := postJSON(t, url, batch, &res); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if res.Consumed != n || len(res.Verdicts) == 0 {
		t.Fatalf("ingest result %+v, want %d consumed with verdicts", res, n)
	}

	// SIGTERM checkpoints the session and exits cleanly.
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
	spooled, err := filepath.Glob(filepath.Join(spool, "*.ckpt"))
	if err != nil || len(spooled) != 1 || filepath.Base(spooled[0]) != info.ID+".ckpt" {
		t.Fatalf("spool after SIGTERM: %v (err %v), want one %s.ckpt envelope", spooled, err, info.ID)
	}
	var ex serve.SessionExport
	if blob, err := os.ReadFile(spooled[0]); err != nil || json.Unmarshal(blob, &ex) != nil || ex.ID != info.ID {
		t.Fatalf("spooled envelope for %s unreadable or names %q (err %v)", info.ID, ex.ID, err)
	}

	// A restarted server restores the session and keeps scoring it.
	ready2 := make(chan string, 1)
	done2 := make(chan error, 1)
	go func() {
		done2 <- run([]string{"-model", model, "-addr", "127.0.0.1:0", "-spool", spool, "-quiet"}, ready2)
	}()
	select {
	case addr := <-ready2:
		base = "http://" + addr
	case err := <-done2:
		t.Fatalf("restarted server exited before ready: %v", err)
	}
	resp, err := http.Get(base + "/v1/sessions/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var state serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || state.Consumed != n {
		t.Fatalf("restored session: status %d state %+v, want consumed=%d", resp.StatusCode, state, n)
	}
	url = fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID)
	batch = serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[n : n+info.Window])}
	if code := postJSON(t, url, batch, &res); code != http.StatusOK {
		t.Fatalf("post-restore ingest: status %d", code)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("restarted server did not shut down on SIGTERM")
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
