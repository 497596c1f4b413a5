package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// writeDataset materialises a small dataset's logs as .letl files.
func writeDataset(t *testing.T, dir string) (benign, mixed, malicious string) {
	t.Helper()
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 2000, 2000, 1000
	logs, err := spec.Generate(5)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, log *trace.Log) string {
		path := filepath.Join(dir, name)
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
		return path
	}
	return write("benign.letl", logs.Benign),
		write("mixed.letl", logs.Mixed),
		write("malicious.letl", logs.Malicious)
}

func TestRunTrainsAndSavesModel(t *testing.T) {
	dir := t.TempDir()
	benign, mixed, _ := writeDataset(t, dir)
	model := filepath.Join(dir, "out.model")
	err := run([]string{
		"-benign", benign, "-mixed", mixed, "-model", model,
		"-lambda", "8", "-sigma2", "2", "-seed", "1", "-lenient",
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(model)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Error("model file is empty")
	}
}

// TestRunWritesTelemetryReport reads the -telemetry-out report of a
// training run: it counts SVM training runs and weighted CFG paths.
func TestRunWritesTelemetryReport(t *testing.T) {
	dir := t.TempDir()
	benign, mixed, _ := writeDataset(t, dir)
	report := filepath.Join(dir, "train.telemetry.json")
	err := run([]string{
		"-benign", benign, "-mixed", mixed, "-model", filepath.Join(dir, "out.model"),
		"-lambda", "8", "-sigma2", "2", "-seed", "1", "-quiet", "-telemetry-out", report,
	})
	if err != nil {
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
	for _, name := range []string{"svm_train_runs_total", "weight_paths_total"} {
		if !slices.ContainsFunc(snap.Metrics, func(m telemetry.MetricSnapshot) bool { return m.Name == name && m.Value > 0 }) {
			t.Errorf("telemetry report lacks a nonzero %s", name)
		}
	}
}

func TestRunMultiSeed(t *testing.T) {
	dir := t.TempDir()
	benign, mixed, _ := writeDataset(t, dir)
	model := filepath.Join(dir, "out.model")
	regDir := filepath.Join(dir, "registry")
	err := run([]string{
		"-benign", benign, "-mixed", mixed, "-model", model,
		"-lambda", "8", "-sigma2", "2", "-seeds", "1, 2", "-lenient",
		"-registry", regDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{model, model + ".seed2"} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Errorf("model file %s is empty", path)
		}
	}

	// Both seeds were published; the first became the champion.
	st, err := registry.Open(regDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("registry holds %d entries, want 2", len(entries))
	}
	seeds := map[int64]bool{}
	for _, man := range entries {
		seeds[man.Train.Seed] = true
		if man.Train.Lambda != 8 || man.Train.BenignLog != benign || man.Train.App == "" {
			t.Errorf("manifest training info %+v does not record the run", man.Train)
		}
	}
	if !seeds[1] || !seeds[2] {
		t.Errorf("published seeds %v, want 1 and 2", seeds)
	}
	ptr, ok, err := st.Current()
	if err != nil || !ok {
		t.Fatalf("registry current: ok=%v err=%v", ok, err)
	}
	if ptr.ID != entries[0].ID {
		t.Errorf("current = %s, want the first published entry %s", ptr.ID, entries[0].ID)
	}
}

// saverFunc adapts a function to the modelSaver interface.
type saverFunc func(io.Writer) error

func (f saverFunc) Save(w io.Writer) error { return f(w) }

// TestSaveModelAtomicity checks satellite guarantee of saveModel: a
// write that fails part-way leaves nothing observable at the output
// path, and no temporary files behind.
func TestSaveModelAtomicity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.model")

	// A saver that emits partial bytes and then fails must not create the
	// output file.
	boom := errors.New("disk went away")
	err := saveModel(path, saverFunc(func(w io.Writer) error {
		if _, err := w.Write([]byte("partial bytes")); err != nil {
			return err
		}
		return boom
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("saveModel error = %v, want the saver's failure", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed save left a file at %s", path)
	}
	assertNoTempFiles(t, dir)

	// A successful save lands the full content at the path.
	if err := saveModel(path, saverFunc(func(w io.Writer) error {
		_, err := w.Write([]byte("complete model"))
		return err
	})); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "complete model" {
		t.Fatalf("saved content %q err %v", blob, err)
	}
	assertNoTempFiles(t, dir)

	// Overwriting an existing model that fails mid-write keeps the old
	// content intact.
	err = saveModel(path, saverFunc(func(w io.Writer) error {
		if _, err := w.Write([]byte("half-writ")); err != nil {
			return err
		}
		return boom
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("overwrite error = %v, want the saver's failure", err)
	}
	blob, err = os.ReadFile(path)
	if err != nil || string(blob) != "complete model" {
		t.Fatalf("failed overwrite corrupted the model: %q err %v", blob, err)
	}
	assertNoTempFiles(t, dir)
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, ".*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Errorf("temporary files left behind: %v", matches)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing inputs accepted")
	}
	if err := run([]string{"-benign", "/no/such.letl", "-mixed", "/no/such.letl"}); err == nil {
		t.Error("missing files accepted")
	}
	// -lambda and -sigma2 come together and pass svm's parameter check;
	// the flags are checked before any log is read.
	for _, flags := range [][]string{
		{"-lambda", "8"},
		{"-sigma2", "2"},
		{"-sigma2", "-1"},
		{"-lambda", "0", "-sigma2", "2"},
		{"-lambda", "8", "-sigma2", "0"},
		{"-lambda", "Inf", "-sigma2", "Inf"},
		{"-lambda", "NaN", "-sigma2", "2"},
		{"-lambda", "8", "-sigma2", "-Inf"},
	} {
		err := run(append([]string{"-benign", "/no/such.letl", "-mixed", "/no/such.letl"}, flags...))
		if err == nil || !strings.Contains(err.Error(), "-lambda") {
			t.Errorf("%v: error %v, want a -lambda/-sigma2 usage error", flags, err)
		}
	}
}
