package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autopilot"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/trace"
)

// helperServe marks a re-run of the test binary as a leaps-serve
// process: the arguments after it are run's.
const helperServe = "serve"

// trainedBundles writes a small dataset's benign and mixed logs as
// .letl files under dir and trains them the way leaps-train -seeds
// "1, 2" does: one artifact build, one selection and fit per seed. It
// returns the logs' paths, the mixed log as parsed back and the two
// bundles.
func trainedBundles(t *testing.T, dir string) (benignPath, mixedPath string, mixed *trace.Log, seed1, seed2 []byte) {
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
	parsed := func(name string, log *trace.Log) (string, *trace.Log) {
		var buf bytes.Buffer
		if err := etl.WriteLogs(&buf, log); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		raw, err := etl.Parse(&buf)
		if err != nil {
			t.Fatal(err)
		}
		back, err := raw.SliceApp("")
		if err != nil {
			t.Fatal(err)
		}
		return path, back
	}
	benignPath, benign := parsed("benign.letl", logs.Benign)
	mixedPath, mixed = parsed("mixed.letl", logs.Mixed)
	cfg := core.Config{Seed: 1, FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}}}
	art, err := core.BuildArtifacts(context.Background(), benign, mixed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bundles [2][]byte
	for i, seed := range []int64{1, 2} {
		clf, err := art.Select(seed).Train(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := clf.Save(&buf); err != nil {
			t.Fatal(err)
		}
		bundles[i] = buf.Bytes()
	}
	return benignPath, mixedPath, mixed, bundles[0], bundles[1]
}

// pump streams traffic at base until stop closes: one short-lived
// session per round, which posts batch and is deleted. Errors are
// ignored, since the server under test may crash.
func pump(base string, spec, batch []byte, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		if resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(spec)); err == nil {
			var info serve.SessionInfo
			err := json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err == nil && info.ID != "" {
				if resp, err := http.Post(base+"/v1/sessions/"+info.ID+"/events", "application/json", bytes.NewReader(batch)); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				if req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+info.ID, nil); err == nil {
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startPump runs pump in the background and returns its stop function,
// which waits for it to return.
func startPump(base string, spec, batch []byte) func() {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pump(base, spec, batch, stop)
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// journalRecords reads the autopilot journal under dir.
func journalRecords(t *testing.T, dir string) []autopilot.Record {
	t.Helper()
	recs, err := registry.ReadJSONL[autopilot.Record](filepath.Join(dir, "autopilot.jsonl"))
	if err != nil || len(recs) == 0 {
		t.Fatalf("autopilot journal under %s: %d records (err %v)", dir, len(recs), err)
	}
	return recs
}

// TestRunAutopilotResumesAfterCrash drives the retraining autopilot
// through a crash and a restart. The first server, a child process
// armed with LEAPS_CRASHPOINT, retrains once traffic passes the trigger
// and dies with faultinject's exit code after publishing the candidate
// and starting its shadow, before the journal admits the shadow. A
// restarted server on the same registry resumes that cycle, promotes
// the candidate through the gate with the breaker closed, and scores
// new sessions byte for byte as the seed-2 bundle does.
func TestRunAutopilotResumesAfterCrash(t *testing.T) {
	if args := flag.Args(); len(args) > 0 && args[0] == helperServe {
		ready := make(chan string, 1)
		go func() { fmt.Printf("addr=%s\n", <-ready) }()
		if err := run(args[1:], ready); err != nil {
			t.Fatal(err)
		}
		return
	}

	dir := t.TempDir()
	benignPath, mixedPath, mixed, seed1, seed2 := trainedBundles(t, dir)
	regDir := filepath.Join(dir, "registry")
	st, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	champion, err := st.Publish(bytes.NewReader(seed1), registry.TrainInfo{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(serve.SessionSpecOf(mixed, ""))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := json.Marshal(serve.EventBatch{Events: serve.EventSpecsOf(mixed.Events[:500])})
	if err != nil {
		t.Fatal(err)
	}
	// Mixed traffic keeps both gate measurements defined, and the
	// thresholds leave room for seed-to-seed disagreement.
	args := []string{"-registry", regDir, "-addr", "127.0.0.1:0", "-quiet",
		"-autopilot", "-autopilot-benign", benignPath, "-autopilot-mixed", mixedPath,
		"-autopilot-lambda", "8", "-autopilot-sigma2", "2", "-autopilot-seed", "2",
		"-autopilot-trigger", "100", "-autopilot-interval", "100ms",
		"-autopilot-shadow-timeout", "60s",
		"-gate-min-events", "400", "-gate-min-tpr", "0.5", "-gate-max-fpr", "0.5"}

	// Run 1: a child process that crashes at the armed point.
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestRunAutopilotResumesAfterCrash$", "--", helperServe}, args...)...)
	cmd.Env = append(os.Environ(), faultinject.CrashEnv+"=autopilot/journal/shadow-started")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "addr="); ok {
				addr <- a
			}
		}
		exited <- cmd.Wait()
	}()
	// The child is waited for on every path, and killed if it outlives
	// the test's patience.
	var exitErr error
	select {
	case a := <-addr:
		stopPump := startPump("http://"+a, spec, batch)
		select {
		case exitErr = <-exited:
		case <-time.After(2 * time.Minute):
			cmd.Process.Kill()
			<-exited
			stopPump()
			t.Fatalf("the armed server did not crash within 2m; stderr:\n%s", stderr.String())
		}
		stopPump()
	case exitErr = <-exited:
		t.Fatalf("the armed server exited before serving (%v); stderr:\n%s", exitErr, stderr.String())
	case <-time.After(2 * time.Minute):
		cmd.Process.Kill()
		<-exited
		t.Fatalf("the armed server never served; stderr:\n%s", stderr.String())
	}
	var ee *exec.ExitError
	if !errors.As(exitErr, &ee) || ee.ExitCode() != faultinject.CrashExitCode {
		t.Fatalf("armed server exited with %v, want exit code %d; stderr:\n%s", exitErr, faultinject.CrashExitCode, stderr.String())
	}
	stateDir := filepath.Join(regDir, "autopilot")
	states := map[string]bool{}
	for _, rec := range journalRecords(t, stateDir) {
		states[rec.State] = true
	}
	if !states["published"] || states["shadow-started"] {
		t.Fatalf("journal after the crash holds states %v, want published and not shadow-started", states)
	}

	// Run 2: an in-process restart resumes the interrupted cycle.
	base, done := startRun(t, args...)
	defer func() {
		if done != nil {
			stopRun(t, done)
		}
	}()
	stopPump := startPump(base, spec, batch)
	var status autopilot.Status
	for end := time.Now().Add(2 * time.Minute); status.Cycles.Promoted == 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(end) {
			stopPump()
			t.Fatalf("no promotion within 2m; autopilot status %+v", status)
		}
		resp, err := http.Get(base + "/v1/autopilot")
		if err != nil {
			t.Fatal(err)
		}
		status = autopilot.Status{}
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	stopPump()
	if status.BreakerOpen || status.Cycles.Failed != 0 {
		t.Errorf("autopilot status %+v, want the breaker closed and no failed cycle", status)
	}
	// Cycle 1 started once, before the crash, and ends promoted: the
	// restart resumed it. Traffic may have started cycle 2 since.
	var starts, promoted int
	for _, rec := range journalRecords(t, stateDir) {
		if rec.Cycle != 1 {
			continue
		}
		if rec.State == "cycle-start" {
			starts++
		}
		if rec.State == "cycle-done" && rec.Outcome == autopilot.OutcomePromoted {
			promoted++
		}
	}
	if starts != 1 || promoted != 1 {
		t.Errorf("journal holds %d starts and %d promotions of cycle 1, want it started once and resumed to a promotion", starts, promoted)
	}

	var models serve.ModelsInfo
	resp, err := http.Get(base + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if models.Current == champion.ID || models.Loaded != models.Current {
		t.Fatalf("models after promotion: current %s loaded %s, want a new entry serving (champion was %s)",
			models.Current, models.Loaded, champion.ID)
	}

	// New sessions score as the seed-2 bundle does.
	refModel := filepath.Join(dir, "seed2.model")
	if err := os.WriteFile(refModel, seed2, 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := serve.NewServer(serve.Config{
		Models: map[string]string{"default": refModel},
		Logger: slog.New(slog.DiscardHandler),
	})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()
	verdicts := func(base string) []byte {
		var info serve.SessionInfo
		if code := postJSON(t, base+"/v1/sessions", json.RawMessage(spec), &info); code != http.StatusCreated {
			t.Fatalf("create session at %s: status %d", base, code)
		}
		code, _, reply := post(t, base+"/v1/sessions/"+info.ID+"/events", json.RawMessage(batch))
		if code != http.StatusOK {
			t.Fatalf("ingest at %s: status %d", base, code)
		}
		return reply
	}
	if got, want := verdicts(base), verdicts(refTS.URL); !bytes.Equal(got, want) {
		t.Fatalf("promoted model answered\n%s\nthe seed-2 bundle answers\n%s", got, want)
	}
	stopRun(t, done)
	done = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ref.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
