package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/faultinject"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// buildFixtures trains a model on a small dataset and writes the model and
// the malicious log to disk.
func buildFixtures(t *testing.T, dir string) (modelPath, malPath string) {
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
	modelPath = filepath.Join(dir, "m.model")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := clf.Save(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	malPath = filepath.Join(dir, "mal.letl")
	writeLogFile(t, malPath, logs.Malicious)
	return modelPath, malPath
}

func writeLogFile(t *testing.T, path string, log *trace.Log) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := etl.WriteLogs(f, log); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunDetects(t *testing.T) {
	dir := t.TempDir()
	model, mal := buildFixtures(t, dir)
	if err := run([]string{"-model", model, "-log", mal, "-expect", "malicious"}); err != nil {
		t.Fatal(err)
	}
	// Verbose path.
	if err := run([]string{"-model", model, "-log", mal, "-v"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunWritesTelemetryReport reads the -telemetry-out report of a
// detection run: it counts parsed bytes and detection windows, and
// times the detect span.
func TestRunWritesTelemetryReport(t *testing.T) {
	dir := t.TempDir()
	model, mal := buildFixtures(t, dir)
	report := filepath.Join(dir, "detect.telemetry.json")
	if err := run([]string{"-model", model, "-log", mal, "-quiet", "-telemetry-out", report}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("telemetry report %s: %v", report, err)
	}
	for _, name := range []string{"etl_parsed_bytes_total", "core_detect_windows_total"} {
		if !slices.ContainsFunc(snap.Metrics, func(m telemetry.MetricSnapshot) bool { return m.Name == name && m.Value > 0 }) {
			t.Errorf("telemetry report lacks a nonzero %s", name)
		}
	}
	if !slices.ContainsFunc(snap.Spans, func(s telemetry.SpanSnapshot) bool { return s.Path == "detect" && s.Count > 0 }) {
		t.Errorf("telemetry report lacks the detect span: %+v", snap.Spans)
	}
}

func TestRunLenientRecoversCorruptLog(t *testing.T) {
	dir := t.TempDir()
	model, mal := buildFixtures(t, dir)

	clean, err := os.ReadFile(mal)
	if err != nil {
		t.Fatal(err)
	}
	faulty, rep, err := faultinject.Inject(clean, faultinject.Config{
		Seed:  11,
		Specs: []faultinject.Spec{{Fault: faultinject.Garbage, Rate: 0.03}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total() == 0 {
		t.Fatal("no faults injected")
	}
	corrupt := filepath.Join(dir, "corrupt.letl")
	if err := os.WriteFile(corrupt, faulty, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-model", model, "-log", corrupt}); err == nil {
		t.Fatal("strict run accepted the corrupt log")
	}
	if err := run([]string{"-model", model, "-log", corrupt, "-lenient", "-expect", "malicious"}); err != nil {
		t.Fatalf("lenient run failed: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing inputs accepted")
	}
	if err := run([]string{"-model", "x", "-log", "y", "-expect", "weird"}); err == nil {
		t.Error("bad -expect accepted")
	}
	if err := run([]string{"-model", "/no/such.model", "-log", "/no/such.letl"}); err == nil {
		t.Error("missing files accepted")
	}
}
