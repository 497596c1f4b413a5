package main

// Cluster-simulation baseline: runs every canonical leaps-sim scenario
// and records per-scenario throughput, virtual latency quantiles and the
// verdict checksum as JSON (BENCH_sim.json). Because the simulator is
// deterministic, the checksum and every count are gated exactly on
// compare — any drift means the verdict stream or schedule changed and
// must be an intentional rebaseline. The latency/throughput columns get
// a 20% band only so that deliberate service-model retuning shows up as
// a readable diff instead of a wall of exact-match failures.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry/slogx"
)

// simRow is one canonical scenario's baseline record.
type simRow struct {
	Scenario          string  `json:"scenario"`
	Seed              int64   `json:"seed"`
	Replicas          int     `json:"replicas"`
	Events            int     `json:"events"`
	Batches           int     `json:"batches"`
	BatchesHeld       int     `json:"batches_held"`
	BatchesDropped    int     `json:"batches_dropped"`
	Verdicts          int     `json:"verdicts"`
	Malicious         int     `json:"malicious"`
	Checksum          string  `json:"verdict_checksum"`
	VirtualDurationMS float64 `json:"virtual_duration_ms"`
	ThroughputEPS     float64 `json:"throughput_eps"`
	BatchP50ms        float64 `json:"batch_p50_ms"`
	BatchP95ms        float64 `json:"batch_p95_ms"`
	BatchP99ms        float64 `json:"batch_p99_ms"`
	VerdictP50ms      float64 `json:"verdict_p50_ms"`
	VerdictP95ms      float64 `json:"verdict_p95_ms"`
	VerdictP99ms      float64 `json:"verdict_p99_ms"`
}

// simBaseline is the file layout of BENCH_sim.json.
type simBaseline struct {
	GeneratedAt string   `json:"generated_at"`
	GoVersion   string   `json:"go_version"`
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	Scenarios   []simRow `json:"scenarios"`
}

// simRowOf flattens one simulation report into its baseline row.
func simRowOf(rep *sim.Report) simRow {
	return simRow{
		Scenario:          rep.Scenario,
		Seed:              rep.Seed,
		Replicas:          rep.Replicas,
		Events:            rep.EventsSent,
		Batches:           rep.BatchesSent,
		BatchesHeld:       rep.BatchesHeld,
		BatchesDropped:    rep.BatchesDropped,
		Verdicts:          rep.Verdicts,
		Malicious:         rep.Malicious,
		Checksum:          rep.VerdictChecksum,
		VirtualDurationMS: rep.VirtualDurationMS,
		ThroughputEPS:     rep.ThroughputEPS,
		BatchP50ms:        rep.BatchLatency.P50ms,
		BatchP95ms:        rep.BatchLatency.P95ms,
		BatchP99ms:        rep.BatchLatency.P99ms,
		VerdictP50ms:      rep.VerdictLatency.P50ms,
		VerdictP95ms:      rep.VerdictLatency.P95ms,
		VerdictP99ms:      rep.VerdictLatency.P99ms,
	}
}

// runSimSuite runs every canonical scenario and collects its rows.
func runSimSuite() (*simBaseline, error) {
	base := &simBaseline{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
	for _, sc := range sim.Canonical() {
		rep, err := sim.Run(sim.Config{Scenario: sc, Logger: slogx.L()})
		if err != nil {
			return nil, fmt.Errorf("sim scenario %s: %w", sc.Name, err)
		}
		base.Scenarios = append(base.Scenarios, simRowOf(rep))
	}
	return base, nil
}

func printSimResults(base *simBaseline) {
	for _, r := range base.Scenarios {
		fmt.Printf("%-20s events=%-6d verdicts=%-5d eps=%9.1f verdict p50=%7.3fms p95=%7.3fms p99=%7.3fms checksum=%s\n",
			r.Scenario, r.Events, r.Verdicts, r.ThroughputEPS, r.VerdictP50ms, r.VerdictP95ms, r.VerdictP99ms, r.Checksum)
	}
}

// runSimBaseline runs the canonical scenarios and writes BENCH_sim.json.
func runSimBaseline(path string) error {
	base, err := runSimSuite()
	if err != nil {
		return err
	}
	blob, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	printSimResults(base)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// simLatencyThreshold bands the latency/throughput columns: deviations
// beyond 20% either way fail the compare even though the quantities are
// deterministic, to keep intentional retuning visible as a single
// readable failure.
const simLatencyThreshold = 1.20

// simBand reports whether fresh deviates from old by more than the
// threshold ratio in either direction.
func simBand(old, fresh float64) bool {
	if old == 0 {
		return fresh != 0
	}
	ratio := fresh / old
	return ratio > simLatencyThreshold || ratio < 1/simLatencyThreshold
}

// runSimCompare re-runs the canonical scenarios and diffs them against
// the committed BENCH_sim.json: exact on the deterministic counts and
// the verdict checksum, 20% bands on throughput and latency. Either
// kind of mismatch fails.
func runSimCompare(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed simBaseline
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	old := make(map[string]simRow, len(committed.Scenarios))
	for _, r := range committed.Scenarios {
		old[r.Scenario] = r
	}

	fresh, err := runSimSuite()
	if err != nil {
		return err
	}

	var failures []string
	for _, r := range fresh.Scenarios {
		o, ok := old[r.Scenario]
		if !ok {
			// A scenario the baseline has never seen is drift, not noise: the
			// canonical catalog grew and BENCH_sim.json was not regenerated.
			fmt.Printf("%-20s checksum=%s  NEW (not in baseline)\n", r.Scenario, r.Checksum)
			failures = append(failures,
				r.Scenario+": new canonical scenario absent from the baseline")
			continue
		}
		before := len(failures)
		exact := []struct {
			name     string
			old, new any
		}{
			{"seed", o.Seed, r.Seed},
			{"replicas", o.Replicas, r.Replicas},
			{"events", o.Events, r.Events},
			{"batches", o.Batches, r.Batches},
			{"batches_held", o.BatchesHeld, r.BatchesHeld},
			{"batches_dropped", o.BatchesDropped, r.BatchesDropped},
			{"verdicts", o.Verdicts, r.Verdicts},
			{"malicious", o.Malicious, r.Malicious},
			{"verdict_checksum", o.Checksum, r.Checksum},
		}
		for _, e := range exact {
			if e.old != e.new {
				failures = append(failures, fmt.Sprintf("%s: %s %v -> %v", r.Scenario, e.name, e.old, e.new))
			}
		}
		banded := []struct {
			name     string
			old, new float64
		}{
			{"throughput_eps", o.ThroughputEPS, r.ThroughputEPS},
			{"verdict_p50_ms", o.VerdictP50ms, r.VerdictP50ms},
			{"verdict_p95_ms", o.VerdictP95ms, r.VerdictP95ms},
			{"verdict_p99_ms", o.VerdictP99ms, r.VerdictP99ms},
		}
		for _, b := range banded {
			if simBand(b.old, b.new) {
				failures = append(failures, fmt.Sprintf("%s: %s %.3f -> %.3f (%.2fx)", r.Scenario, b.name, b.old, b.new, safeRatio(b.old, b.new)))
			}
		}
		status := "ok"
		if len(failures) > before {
			status = "MISMATCH"
		}
		fmt.Printf("%-20s checksum=%s eps=%9.1f p95=%7.3fms  %s\n", r.Scenario, r.Checksum, r.ThroughputEPS, r.VerdictP95ms, status)
	}
	for name := range old {
		found := false
		for _, r := range fresh.Scenarios {
			if r.Scenario == name {
				found = true
				break
			}
		}
		if !found {
			failures = append(failures, name+": scenario missing from the canonical catalog")
		}
	}
	if len(failures) > 0 {
		msg := fmt.Sprintf("%d simulation mismatch(es) vs %s (the simulator is deterministic; rebaseline with 'make bench BENCH_REBASELINE=1' if intentional):", len(failures), path)
		for _, f := range failures {
			msg += "\n  " + f
		}
		return fmt.Errorf("%s", msg)
	}
	fmt.Printf("no simulation drift vs %s\n", path)
	return nil
}

// safeRatio guards the divide in failure messages.
func safeRatio(old, fresh float64) float64 {
	if old == 0 {
		return math.Inf(1)
	}
	return fresh / old
}
