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
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/svm"
)

// trainMonitor builds one small real monitor for replica fixtures.
func trainMonitor(t *testing.T) (*core.Monitor, *dataset.Logs) {
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
	return core.NewMonitor(clf), logs
}

// startReplica boots a real serve.Server on a real TCP listener and
// returns its base URL — the shape -replica flags point at.
func startReplica(t *testing.T, mon *core.Monitor, id string) string {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{
		Preloaded: map[string]*core.Monitor{"default": mon},
		ReplicaID: id,
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return hs.URL
}

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

// TestRunRoutesAndDrains drives the router binary end to end over real
// sockets: two serve replicas behind run(), session creation lands on
// the ring owner, a drain hands the session off, and the verdict
// stream continues on the survivor.
func TestRunRoutesAndDrains(t *testing.T) {
	mon, logs := trainMonitor(t)
	r0 := startReplica(t, mon, "r0")
	r1 := startReplica(t, mon, "r1")

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-replica", "r0=" + r0, "-replica", "r1=" + r1,
			"-addr", "127.0.0.1:0", "-ring-seed", "7", "-quiet",
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("router exited before ready: %v", err)
	}

	mal := logs.Malicious
	var info serve.SessionInfo
	spec := serve.SessionSpecOf(mal, "")
	spec.ID = "smoke-session"
	if code := postJSON(t, base+"/v1/sessions", spec, &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	if info.Replica != "r0" && info.Replica != "r1" {
		t.Fatalf("session owner %q is not a fleet member", info.Replica)
	}
	n := 2 * info.Window
	var res serve.IngestResult
	url := fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID)
	if code := postJSON(t, url, serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[:n])}, &res); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if res.Consumed != n || len(res.Verdicts) == 0 {
		t.Fatalf("ingest result %+v, want %d consumed with verdicts", res, n)
	}

	// Drain the owner: the session must move and keep its stream.
	var dr struct {
		Member string `json:"member"`
		Moved  int    `json:"moved"`
	}
	dr.Member = info.Replica
	if code := postJSON(t, base+"/v1/fleet/drain", dr, &dr); code != http.StatusOK {
		t.Fatalf("drain: status %d", code)
	}
	if dr.Moved != 1 {
		t.Fatalf("drain moved %d sessions, want 1", dr.Moved)
	}
	var fs fleet.FleetStatus
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fs.Generation != 3 || len(fs.Members) != 2 {
		t.Fatalf("fleet status %+v, want generation 3 with 2 members", fs)
	}
	if code := postJSON(t, url, serve.EventBatch{Events: serve.EventSpecsOf(mal.Events[n : n+info.Window])}, &res); code != http.StatusOK {
		t.Fatalf("post-drain ingest: status %d", code)
	}
	if len(res.Verdicts) == 0 {
		t.Fatal("no verdicts after handoff")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("router did not shut down on SIGTERM")
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run(nil, nil); err == nil {
		t.Error("missing -replica accepted")
	}
}

func TestReplicaFlags(t *testing.T) {
	r := &replicaFlags{}
	if err := r.Set("r0=http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("r1=https://example.com:2"); err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "r0=http://127.0.0.1:1,r1=https://example.com:2" {
		t.Fatalf("String() = %q", got)
	}
	for _, bad := range []string{"", "=http://x", "r2=", "r2=ftp://x", "r0=http://dup"} {
		if err := r.Set(bad); err == nil {
			t.Errorf("value %q accepted", bad)
		}
	}
}
