package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/serve"
)

// publishModel trains buildModel's model and publishes it into a fresh
// registry under dir, where it becomes the champion.
func publishModel(t *testing.T, dir string) (regDir string, logs *dataset.Logs) {
	t.Helper()
	model, logs := buildModel(t, dir)
	regDir = filepath.Join(dir, "registry")
	st, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := st.Publish(f, registry.TrainInfo{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	return regDir, logs
}

// get fetches url with optional request headers and fails the test
// unless it answers 200.
func get(t *testing.T, url string, header ...string) (http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d (err %v): %s", url, resp.StatusCode, err, body)
	}
	return resp.Header, body
}

// waitFile polls until a file matching pattern holds content that
// satisfies ok, and returns that content. Dumps are written in place,
// so a poll may see one half written; it keeps polling.
func waitFile(t *testing.T, pattern string, ok func([]byte) bool) []byte {
	t.Helper()
	for end := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		matches, _ := filepath.Glob(pattern)
		for _, m := range matches {
			if blob, err := os.ReadFile(m); err == nil && ok(blob) {
				return blob
			}
		}
		if time.Now().After(end) {
			t.Fatalf("no file matching %s holds what the test waits for (matches: %v)", pattern, matches)
		}
	}
}

// TestRunObservability follows one injected W3C trace through every
// exposition surface of a running leaps-serve: the echoed traceparent,
// both /metrics formats, pprof, the on-demand flight dump, the dump a
// circuit-breaker trip writes and the dumps SIGQUIT writes.
func TestRunObservability(t *testing.T) {
	dir := t.TempDir()
	regDir, logs := publishModel(t, dir)
	spool := filepath.Join(dir, "spool")
	// The autopilot fails on purpose: its training logs do not exist,
	// retries are off and one failed cycle trips the breaker, which
	// dumps the flight recorder into its state directory.
	base, done := startRun(t, "-registry", regDir, "-spool", spool,
		"-autopilot",
		"-autopilot-benign", filepath.Join(dir, "no-such-benign.letl"),
		"-autopilot-mixed", filepath.Join(dir, "no-such-mixed.letl"),
		"-autopilot-trigger", "1", "-autopilot-interval", "200ms",
		"-autopilot-retries=-1", "-autopilot-breaker", "1")
	defer func() {
		if done != nil {
			stopRun(t, done)
		}
	}()

	const trace, parentSpan = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	var info serve.SessionInfo
	if code := postJSON(t, base+"/v1/sessions", serve.SessionSpecOf(logs.Malicious, ""), &info); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	blob, err := json.Marshal(serve.EventBatch{Events: serve.EventSpecsOf(logs.Malicious.Events[:3*info.Window])})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/v1/sessions/%s/events", base, info.ID), bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+trace+"-"+parentSpan+"-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(reply, []byte(`"first_event"`)) {
		t.Fatalf("traced ingest: status %d reply %s, want verdicts", resp.StatusCode, reply)
	}
	echoed := resp.Header.Get("traceparent")
	if !strings.HasPrefix(echoed, "00-"+trace+"-") || strings.Contains(echoed, parentSpan) {
		t.Fatalf("response traceparent %q, want trace %s in a child span of %s", echoed, trace, parentSpan)
	}

	// The classic scrape carries no exemplar; the OpenMetrics one
	// carries the trace's and ends in # EOF. Both lint clean.
	_, text := get(t, base+"/metrics")
	if bytes.Contains(text, []byte(" # {")) || bytes.Contains(text, []byte("# EOF")) {
		t.Error("plain-text /metrics carries OpenMetrics exemplars or # EOF")
	}
	for _, p := range lintMetrics(text) {
		t.Errorf("plain-text /metrics: %s", p)
	}
	header, om := get(t, base+"/metrics", "Accept", "application/openmetrics-text; version=1.0.0")
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("OpenMetrics scrape answered Content-Type %q", ct)
	}
	if !bytes.Contains(om, []byte(`trace_id="`+trace+`"`)) {
		t.Errorf("no OpenMetrics exemplar carries trace %s", trace)
	}
	if !bytes.HasSuffix(om, []byte("# EOF\n")) {
		t.Error("OpenMetrics exposition does not end in # EOF")
	}
	for _, p := range lintMetrics(om) {
		t.Errorf("OpenMetrics /metrics: %s", p)
	}

	get(t, base+"/debug/pprof/")
	_, ondemand := get(t, base+"/debug/flightrecorder")
	if !bytes.Contains(ondemand, []byte(`"reason": "on-demand"`)) || !bytes.Contains(ondemand, []byte(trace)) {
		t.Errorf("on-demand flight dump lacks its reason or trace %s", trace)
	}

	// The breaker-trip dump holds the ingest's trace and the journal's
	// autopilot entries.
	waitFile(t, filepath.Join(regDir, "autopilot", "flight-breaker-trip-*.json"), func(dump []byte) bool {
		for _, want := range []string{`"reason": "breaker-trip"`, trace, `"kind": "autopilot"`} {
			if !bytes.Contains(dump, []byte(want)) {
				return false
			}
		}
		return true
	})

	// SIGQUIT dumps the flight recorder and every goroutine's stack into
	// the spool and keeps serving. run is ready, so it catches the
	// signal.
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	waitFile(t, filepath.Join(spool, "flight-sigquit-*.json"), func(dump []byte) bool {
		return bytes.Contains(dump, []byte(`"reason": "sigquit"`))
	})
	stack := regexp.MustCompile(`(?m)^goroutine \d+ \[`)
	waitFile(t, filepath.Join(spool, "goroutines-sigquit-*.txt"), stack.Match)
	get(t, base+"/healthz")
	stopRun(t, done)
	done = nil
}
