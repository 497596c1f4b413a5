package autopilot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/svm"
	"repro/internal/trace"
)

// Shared trained bundles: training dominates test time, so every test
// reuses one champion (A) and one distinct candidate (B).
var (
	fixOnce          sync.Once
	fixErr           error
	bundleA, bundleB []byte
)

func testBundles(t *testing.T) (champion, candidate []byte) {
	t.Helper()
	fixOnce.Do(func() {
		spec, err := dataset.ByName("vim_reverse_tcp")
		if err != nil {
			fixErr = err
			return
		}
		logs, err := spec.Generate(7)
		if err != nil {
			fixErr = err
			return
		}
		train := func(lambda, sigma2 float64) ([]byte, error) {
			td, err := core.BuildTrainingData(logs.Benign, logs.Mixed, core.Config{
				Seed:        7,
				FixedParams: &svm.Params{Lambda: lambda, Kernel: svm.RBFKernel{Sigma2: sigma2}},
			})
			if err != nil {
				return nil, err
			}
			clf, err := td.Train()
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := clf.Save(&buf); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
		if bundleA, fixErr = train(8, 2); fixErr != nil {
			return
		}
		bundleB, fixErr = train(2, 4)
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	if bytes.Equal(bundleA, bundleB) {
		t.Fatal("fixture bundles are identical; tests need two distinct models")
	}
	return bundleA, bundleB
}

// fakeServing satisfies Serving with scripted behaviour: shadow
// evaluations immediately report the configured comparison, and Reload
// records which registry entry a real server would have loaded.
type fakeServing struct {
	store     *registry.Store
	cmp       registry.Comparison
	startErr  error
	reloadErr error

	mu           sync.Mutex
	verdicts     uint64
	shadow       string
	loaded       string
	reloads      int
	shadowStarts int
}

func (f *fakeServing) TrafficStats() (uint64, uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.verdicts, 0
}

func (f *fakeServing) StartShadow(entry string) error {
	if f.startErr != nil {
		return f.startErr
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.shadow = entry
	f.shadowStarts++
	return nil
}

func (f *fakeServing) ShadowComparison() (registry.Comparison, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shadow == "" {
		return registry.Comparison{}, false
	}
	cmp := f.cmp
	cmp.ChallengerID = f.shadow
	return cmp, true
}

func (f *fakeServing) StopShadow() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	had := f.shadow != ""
	f.shadow = ""
	return had
}

func (f *fakeServing) Reload() error {
	if f.reloadErr != nil {
		return f.reloadErr
	}
	ptr, ok, err := f.store.Current()
	if err != nil || !ok {
		return fmt.Errorf("fake reload: current pointer ok=%v err=%v", ok, err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loaded = ptr.ID
	f.reloads++
	return nil
}

// goodComparison passes the test gate (MinEvents 100, MinTPR 0.9,
// MaxFPR 0.1): TPR 180/184, FPR 1/16.
func goodComparison() registry.Comparison {
	return registry.Comparison{Events: 200, Windows: 200,
		Confusion: metrics.Confusion{TP: 180, TN: 15, FP: 1, FN: 4}}
}

// badComparison fails the gate on TPR: the candidate raises new alarms
// on half the champion-benign windows.
func badComparison() registry.Comparison {
	return registry.Comparison{Events: 200, Windows: 200,
		Confusion: metrics.Confusion{TP: 90, TN: 15, FP: 1, FN: 94}}
}

func staticTrainer(blob []byte) Trainer {
	return TrainerFunc(func(context.Context) ([]byte, registry.TrainInfo, error) {
		return blob, registry.TrainInfo{App: "vim.exe", Seed: 7}, nil
	})
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// fixture is one wired test world: a registry with champion A current,
// a fake serving side, and a controller config with fast timings.
type fixture struct {
	store    *registry.Store
	fake     *fakeServing
	cfg      Config
	champion registry.Manifest
}

func newFixture(t *testing.T, trainer Trainer) *fixture {
	t.Helper()
	// Poll evidence every millisecond and cap backoffs at 4 ms for the
	// test's lifetime; deferred Stops run before this restore.
	poll, capped := shadowPoll, backoffMax
	shadowPoll, backoffMax = time.Millisecond, 4*time.Millisecond
	t.Cleanup(func() { shadowPoll, backoffMax = poll, capped })
	champ, _ := testBundles(t)
	store, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.Publish(bytes.NewReader(champ), registry.TrainInfo{App: "vim.exe", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	fake := &fakeServing{store: store, cmp: goodComparison(), verdicts: 10_000}
	return &fixture{
		store:    store,
		fake:     fake,
		champion: man,
		cfg: Config{
			Store:            store,
			Trainer:          trainer,
			Gate:             registry.Gate{MinEvents: 100, MinTPR: 0.9, MaxFPR: 0.1},
			StateDir:         t.TempDir(),
			Interval:         time.Hour,
			TriggerEvents:    50,
			ShadowTimeout:    2 * time.Second,
			BackoffBase:      time.Millisecond,
			BreakerThreshold: 2,
			Logger:           quietLogger(),
		},
	}
}

func (fx *fixture) controller(t *testing.T) *Controller {
	t.Helper()
	ctl, err := New(fx.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctl.Bind(fx.fake)
	return ctl
}

// journalStates lists the journaled state names in order.
func journalStates(ctl *Controller) []string {
	var out []string
	for _, rec := range ctl.jrn.records() {
		out = append(out, rec.State)
	}
	return out
}

func TestHappyCyclePromotes(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	ctl := fx.controller(t)

	res, err := ctl.RunCycle()
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if res.Outcome != OutcomePromoted || res.Cycle != 1 {
		t.Fatalf("result = %+v, want cycle 1 promoted", res)
	}
	if res.Decision == nil || !res.Decision.OK {
		t.Errorf("promoted without an approving decision: %+v", res.Decision)
	}
	ptr, ok, _ := fx.store.Current()
	if !ok || ptr.ID != res.Entry || ptr.ID == fx.champion.ID {
		t.Errorf("current = %+v, want the candidate %s", ptr, res.Entry)
	}
	if fx.fake.loaded != res.Entry || fx.fake.reloads != 1 {
		t.Errorf("serving reloaded %q x%d, want %s x1", fx.fake.loaded, fx.fake.reloads, res.Entry)
	}
	want := []string{stateCycleStart, statePublished, stateShadowStarted,
		stateEvaluated, statePromoted, stateCycleDone}
	got := journalStates(ctl)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("journal = %v, want %v", got, want)
	}
	st := ctl.Snapshot()
	if st.Cycles.Promoted != 1 || st.LastOutcome != OutcomePromoted || st.LastEntry != res.Entry {
		t.Errorf("status after promotion = %+v", st)
	}
}

func TestUnchangedCandidateSkipsShadow(t *testing.T) {
	champ, _ := testBundles(t)
	fx := newFixture(t, staticTrainer(champ)) // trainer reproduces the champion
	ctl := fx.controller(t)

	res, err := ctl.RunCycle()
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if res.Outcome != OutcomeUnchanged || res.Entry != fx.champion.ID {
		t.Fatalf("result = %+v, want unchanged %s", res, fx.champion.ID)
	}
	if fx.fake.shadowStarts != 0 || fx.fake.reloads != 0 {
		t.Errorf("unchanged cycle touched serving: %d shadows, %d reloads",
			fx.fake.shadowStarts, fx.fake.reloads)
	}
}

func TestGateRejectionKeepsChampion(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	fx.fake.cmp = badComparison()
	ctl := fx.controller(t)

	res, err := ctl.RunCycle()
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if res.Outcome != OutcomeRejected {
		t.Fatalf("result = %+v, want rejected", res)
	}
	if res.Decision == nil || res.Decision.OK || len(res.Decision.Reasons) == 0 {
		t.Errorf("rejection carries no blocking reasons: %+v", res.Decision)
	}
	ptr, _, _ := fx.store.Current()
	if ptr.ID != fx.champion.ID {
		t.Errorf("rejected cycle moved current to %s", ptr.ID)
	}
	if fx.fake.reloads != 0 {
		t.Error("rejected cycle reloaded serving")
	}
	if fx.fake.shadow != "" {
		t.Error("canary left running after rejection")
	}
	// A rejection is a clean outcome: the breaker run stays at zero.
	if st := ctl.Snapshot(); st.ConsecutiveFailures != 0 || st.BreakerOpen {
		t.Errorf("rejection advanced the breaker: %+v", st)
	}
}

func TestShadowEvidenceStarvationRejects(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	cmp := goodComparison()
	cmp.Events = 10 // never reaches MinEvents 100
	fx.fake.cmp = cmp
	fx.cfg.ShadowTimeout = 20 * time.Millisecond
	ctl := fx.controller(t)

	res, err := ctl.RunCycle()
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if res.Outcome != OutcomeRejected {
		t.Fatalf("starved shadow produced %q, want rejected (fail closed)", res.Outcome)
	}
	found := false
	for _, r := range res.Decision.Reasons {
		if strings.Contains(r, "shadow events") {
			found = true
		}
	}
	if !found {
		t.Errorf("rejection reasons %v do not name the evidence shortfall", res.Decision.Reasons)
	}
}

func TestTrainerRetriesThenSucceeds(t *testing.T) {
	_, cand := testBundles(t)
	attempts := 0
	trainer := TrainerFunc(func(context.Context) ([]byte, registry.TrainInfo, error) {
		attempts++
		if attempts <= 2 {
			return nil, registry.TrainInfo{}, errors.New("transient: dataset busy")
		}
		return cand, registry.TrainInfo{App: "vim.exe"}, nil
	})
	fx := newFixture(t, trainer)
	fx.cfg.StageRetries = 2
	ctl := fx.controller(t)

	res, err := ctl.RunCycle()
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if res.Outcome != OutcomePromoted || attempts != 3 {
		t.Fatalf("outcome %q after %d attempts, want promoted after 3", res.Outcome, attempts)
	}
}

func TestCorruptCandidateFailsCycle(t *testing.T) {
	fx := newFixture(t, staticTrainer([]byte("not a model bundle")))
	fx.cfg.StageRetries = 1
	ctl := fx.controller(t)

	res, err := ctl.RunCycle()
	if err == nil {
		t.Fatal("corrupt candidate bundle completed a cycle")
	}
	if res.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %q, want failed", res.Outcome)
	}
	if !strings.Contains(err.Error(), "rejecting bundle") {
		t.Errorf("error %v does not surface the registry's bundle rejection", err)
	}
	ptr, _, _ := fx.store.Current()
	if ptr.ID != fx.champion.ID {
		t.Errorf("failed cycle moved current to %s", ptr.ID)
	}
}

func TestBreakerTripsAndResumeResets(t *testing.T) {
	_, cand := testBundles(t)
	broken := true
	trainer := TrainerFunc(func(context.Context) ([]byte, registry.TrainInfo, error) {
		if broken {
			return nil, registry.TrainInfo{}, errors.New("training backend down")
		}
		return cand, registry.TrainInfo{App: "vim.exe"}, nil
	})
	fx := newFixture(t, trainer)
	fx.cfg.StageRetries = 1 // 2 attempts per cycle keeps the test quick
	ctl := fx.controller(t)

	for i := 0; i < fx.cfg.BreakerThreshold; i++ {
		if _, err := ctl.RunCycle(); err == nil {
			t.Fatalf("cycle %d succeeded with a broken trainer", i+1)
		}
	}
	st := ctl.Snapshot()
	if !st.BreakerOpen || st.ConsecutiveFailures != fx.cfg.BreakerThreshold {
		t.Fatalf("breaker not open after %d failures: %+v", fx.cfg.BreakerThreshold, st)
	}
	if st.Phase != "breaker-open" {
		t.Errorf("phase = %q, want breaker-open", st.Phase)
	}
	if _, err := ctl.RunCycle(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("RunCycle with open breaker = %v, want ErrBreakerOpen", err)
	}
	// The champion keeps serving the whole time.
	if ptr, _, _ := fx.store.Current(); ptr.ID != fx.champion.ID {
		t.Errorf("breaker path moved current to %s", ptr.ID)
	}

	broken = false
	if err := ctl.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	st = ctl.Snapshot()
	if st.BreakerOpen || st.ConsecutiveFailures != 0 {
		t.Fatalf("Resume did not reset the breaker: %+v", st)
	}
	res, err := ctl.RunCycle()
	if err != nil || res.Outcome != OutcomePromoted {
		t.Fatalf("post-resume cycle = %+v err %v, want promoted", res, err)
	}
}

func TestBreakerStateSurvivesRestart(t *testing.T) {
	fx := newFixture(t, TrainerFunc(func(context.Context) ([]byte, registry.TrainInfo, error) {
		return nil, registry.TrainInfo{}, errors.New("always broken")
	}))
	fx.cfg.StageRetries = 0
	ctl := fx.controller(t)
	for i := 0; i < fx.cfg.BreakerThreshold; i++ {
		if _, err := ctl.RunCycle(); err == nil {
			t.Fatal("broken trainer succeeded")
		}
	}

	// A restarted controller recomputes the breaker from the journal.
	ctl2 := fx.controller(t)
	if st := ctl2.Snapshot(); !st.BreakerOpen {
		t.Fatalf("restart lost the open breaker: %+v", st)
	}
	if _, err := ctl2.RunCycle(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("restarted controller ran with open breaker: %v", err)
	}
}

func TestPausePersistsAcrossRestart(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	ctl := fx.controller(t)
	if err := ctl.Pause("maintenance window"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl.RunCycle(); !errors.Is(err, ErrPaused) {
		t.Fatalf("paused RunCycle = %v, want ErrPaused", err)
	}

	ctl2 := fx.controller(t)
	st := ctl2.Snapshot()
	if !st.Paused || st.PauseReason != "maintenance window" {
		t.Fatalf("restart lost the pause: %+v", st)
	}
	if err := ctl2.Resume(); err != nil {
		t.Fatal(err)
	}
	res, err := ctl2.RunCycle()
	if err != nil || res.Outcome != OutcomePromoted {
		t.Fatalf("post-resume cycle = %+v err %v", res, err)
	}
}

func TestTriggerFiresOnTrafficDelta(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	fx.fake.verdicts = 40 // below TriggerEvents 50
	ctl := fx.controller(t)

	if ctl.triggered() {
		t.Fatal("trigger fired below the traffic floor")
	}
	fx.fake.mu.Lock()
	fx.fake.verdicts = 60
	fx.fake.mu.Unlock()
	if !ctl.triggered() {
		t.Fatal("trigger did not fire past the traffic floor")
	}
	if _, err := ctl.RunCycle(); err != nil {
		t.Fatal(err)
	}
	// The cycle re-anchored the baseline: no immediate re-trigger.
	if ctl.triggered() {
		t.Fatal("trigger re-fired immediately after a cycle")
	}
	st := ctl.Snapshot()
	if st.SinceBaseline != 0 || st.TriggerEvents != 50 {
		t.Errorf("trigger progress = %+v", st)
	}
}

func TestTriggerReanchorsAfterServeRestart(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	ctl := fx.controller(t)
	if _, err := ctl.RunCycle(); err != nil { // baseline = 10000
		t.Fatal(err)
	}
	// Serving process restarted: counters reset below the watermark.
	fx.fake.mu.Lock()
	fx.fake.verdicts = 5
	fx.fake.mu.Unlock()
	if ctl.triggered() {
		t.Fatal("trigger fired on a counter reset")
	}
	fx.fake.mu.Lock()
	fx.fake.verdicts = 5 + 50
	fx.fake.mu.Unlock()
	if !ctl.triggered() {
		t.Fatal("trigger did not re-anchor to the reset counters")
	}
}

func TestStartLoopRunsCycleOnKick(t *testing.T) {
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	fx.cfg.Interval = 10 * time.Millisecond
	ctl := fx.controller(t)
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()
	ctl.Kick()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := ctl.Snapshot(); st.Cycles.Promoted == 1 {
			if ptr, _, _ := fx.store.Current(); ptr.ID == st.LastEntry {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("loop never promoted: %+v", ctl.Snapshot())
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	fx := newFixture(t, staticTrainer(nil))
	fx.cfg.BackoffBase = 100 * time.Millisecond
	backoffMax = time.Second
	ctl := fx.controller(t)

	for attempt := 0; attempt < 8; attempt++ {
		d1 := ctl.backoff("train", 3, attempt)
		d2 := ctl.backoff("train", 3, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 > backoffMax {
			t.Fatalf("attempt %d: backoff %v exceeds max %v", attempt, d1, backoffMax)
		}
		if d1 < fx.cfg.BackoffBase/2 {
			t.Fatalf("attempt %d: backoff %v below half the base", attempt, d1)
		}
	}
	// Jitter differentiates stages: identical budgets, different delays
	// (holds for this seed; the schedule is pinned by determinism).
	if ctl.backoff("train", 3, 1) == ctl.backoff("publish", 3, 1) &&
		ctl.backoff("train", 4, 1) == ctl.backoff("publish", 4, 1) {
		t.Error("jitter identical across stages for two cycles; hash looks unused")
	}
}

// writeRaw serialises one sliced log back into a raw .letl file.
func writeRaw(t *testing.T, path string, log *trace.Log) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := etl.WriteLogs(f, log); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLogTrainerTrainsFromDisk(t *testing.T) {
	t.Parallel()
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	logs, err := spec.Generate(7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	benign, mixed := dir+"/benign.letl", dir+"/mixed.letl"
	writeRaw(t, benign, logs.Benign)
	writeRaw(t, mixed, logs.Mixed)

	tr := LogTrainer{BenignPath: benign, MixedPath: mixed, Params: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}}, Seed: 7}
	blob, info, err := tr.Train(context.Background())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(blob) == 0 || info.Lambda != 8 || info.BenignLog != benign {
		t.Errorf("trained blob %d bytes, info %+v", len(blob), info)
	}
	if _, err := core.LoadMonitor(bytes.NewReader(blob)); err != nil {
		t.Errorf("trained bundle does not load: %v", err)
	}
}
