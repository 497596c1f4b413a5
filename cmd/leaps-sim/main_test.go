package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

// smokeScenario is a small churn workload: a graceful restart of one
// replica, a hard kill of the other and a mid-traffic promotion, on a
// model small enough to train in well under a second.
const smokeScenario = `{
  "name": "smoke",
  "seed": 4242,
  "replicas": 2,
  "duration_sec": 8,
  "arrival": {"process": "poisson", "rate_per_sec": 4},
  "lifetime": {"dist": "uniform", "min_events": 30, "max_events": 60},
  "mix": [
    {"app": "vim", "weight": 3},
    {"app": "vim", "payload": "reverse_tcp", "method": "online-injection", "payload_fraction": 0.3, "weight": 1}
  ],
  "batch_events": 10,
  "batch_interval_ms": 200,
  "service": {"per_event_micros": 150, "batch_overhead_micros": 500, "jitter_frac": 0.2},
  "faults": [
    {"replica": 0, "at_sec": 3, "down_sec": 2, "kind": "sigterm"},
    {"replica": 1, "at_sec": 4, "down_sec": 1, "kind": "kill"}
  ],
  "promotion": {"at_sec": 5},
  "model": {"dataset": "vim_reverse_tcp", "seed": 7, "challenger_seed": 11,
            "benign_events": 2000, "mixed_events": 1000, "malicious_events": 500}
}`

// simRun runs leaps-sim on the scenario file with extra flags and
// returns the report and event log it wrote.
func simRun(t *testing.T, scenario, name string, extra ...string) (report, eventLog []byte) {
	t.Helper()
	dir := t.TempDir()
	args := append([]string{"-q", "-scenario", scenario,
		"-report", filepath.Join(dir, name+".json"),
		"-eventlog", filepath.Join(dir, name+".log"),
		"-workdir", filepath.Join(dir, "work")}, extra...)
	if err := run(args); err != nil {
		t.Fatalf("leaps-sim %v: %v", args, err)
	}
	report, err := os.ReadFile(filepath.Join(dir, name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	eventLog, err = os.ReadFile(filepath.Join(dir, name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	return report, eventLog
}

// TestRunScenarioFileDeterminism drives leaps-sim on a scenario file:
// the same seed twice writes byte-identical -report and -eventlog files,
// the report shows the promotion and the hard kill, and -seed changes
// the verdict checksum.
func TestRunScenarioFileDeterminism(t *testing.T) {
	scenario := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(scenario, []byte(smokeScenario), 0o644); err != nil {
		t.Fatal(err)
	}
	rep1, log1 := simRun(t, scenario, "run1")
	rep2, log2 := simRun(t, scenario, "run2")
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("same seed wrote different reports:\n--- run1\n%s\n--- run2\n%s", rep1, rep2)
	}
	if len(log1) == 0 || !bytes.Equal(log1, log2) {
		t.Errorf("same seed wrote different (or empty) event logs: %d and %d bytes", len(log1), len(log2))
	}

	var rep sim.Report
	if err := json.Unmarshal(rep1, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Promoted {
		t.Error("the mid-traffic promotion did not fire")
	}
	if len(rep.Fleet) != 2 || rep.Fleet[1].Crashes != 1 {
		t.Errorf("fleet rows %+v, want replica 1 killed once", rep.Fleet)
	}

	rep3, _ := simRun(t, scenario, "run3", "-seed", "4243")
	var other sim.Report
	if err := json.Unmarshal(rep3, &other); err != nil {
		t.Fatal(err)
	}
	if other.Seed != 4243 || other.VerdictChecksum == rep.VerdictChecksum {
		t.Errorf("-seed 4243 ran seed %d with checksum %s, want a checksum other than seed 4242's %s",
			other.Seed, other.VerdictChecksum, rep.VerdictChecksum)
	}
}
