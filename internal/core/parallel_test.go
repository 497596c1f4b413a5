package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// sameFloat treats two NaNs as equal (AUCs are NaN on degenerate test
// sets).
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// TestEvaluateRunsParallelDeterminism is the ISSUE's regression gate: for
// a fixed Config.Seed, EvaluateRuns must produce identical EvalResult
// values with parallelism 1 and parallelism N, because every randomised
// step derives its RNG from its own seed rather than from shared state.
func TestEvaluateRunsParallelDeterminism(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 17)
	const runs = 3

	serial := fastConfig(17)
	serial.Parallel = 1
	a, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, serial, runs)
	if err != nil {
		t.Fatal(err)
	}

	parallel := fastConfig(17)
	parallel.Parallel = 4
	b, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, parallel, runs)
	if err != nil {
		t.Fatal(err)
	}

	if a.CGraph != b.CGraph || a.SVM != b.SVM || a.WSVM != b.WSVM {
		t.Errorf("summaries differ between Parallel=1 and Parallel=4:\n  serial   %+v %+v %+v\n  parallel %+v %+v %+v",
			a.CGraph, a.SVM, a.WSVM, b.CGraph, b.SVM, b.WSVM)
	}
	if !sameFloat(a.WSVMAUC, b.WSVMAUC) || !sameFloat(a.SVMAUC, b.SVMAUC) {
		t.Errorf("AUCs differ: serial (%v, %v) parallel (%v, %v)", a.WSVMAUC, a.SVMAUC, b.WSVMAUC, b.SVMAUC)
	}
	if a.CGraphUndecidedFrac != b.CGraphUndecidedFrac || a.MeanMixedWeight != b.MeanMixedWeight {
		t.Errorf("diagnostics differ: serial (%v, %v) parallel (%v, %v)",
			a.CGraphUndecidedFrac, a.MeanMixedWeight, b.CGraphUndecidedFrac, b.MeanMixedWeight)
	}
	if a.TrainBenign != b.TrainBenign || a.TrainMixed != b.TrainMixed ||
		a.TestBenign != b.TestBenign || a.TestMalicious != b.TestMalicious {
		t.Errorf("set sizes differ: serial (%d/%d/%d/%d) parallel (%d/%d/%d/%d)",
			a.TrainBenign, a.TrainMixed, a.TestBenign, a.TestMalicious,
			b.TrainBenign, b.TrainMixed, b.TestBenign, b.TestMalicious)
	}
}

// TestEvaluateRunsBuildsArtifactsOnce checks the ISSUE's acceptance
// criterion directly: with runs=N the seed-independent artifact build
// (the "train/build" span) happens exactly once, and the per-seed
// training ("train") happens 2×N times (WSVM + plain SVM per run).
func TestEvaluateRunsBuildsArtifactsOnce(t *testing.T) {
	telemetry.ResetSpans()
	logs := genLogs(t, "vim_reverse_tcp", 18)
	const runs = 3
	cfg := fastConfig(18)
	cfg.Parallel = 2
	if _, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg, runs); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]uint64)
	for _, s := range telemetry.SpanReport() {
		counts[s.Path] = s.Count
	}
	if counts["train/build"] != 1 {
		t.Errorf("train/build span count = %d, want exactly 1 for runs=%d", counts["train/build"], runs)
	}
	if counts["train"] != 2*runs {
		t.Errorf("train span count = %d, want %d (WSVM+SVM per run)", counts["train"], 2*runs)
	}
}

// TestTrainSizesReported checks the satellite fix: EvalResult reports the
// actual sampled training-set sizes, not fraction-scaled estimates. With
// a fraction small enough to round the estimate to zero, sampling still
// draws one window and the report must say so.
func TestTrainSizesReported(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 19)
	cfg := fastConfig(19)
	cfg.SampleFraction = 0.001
	res, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrainBenign != 1 || res.TrainMixed != 1 {
		t.Errorf("TrainBenign/TrainMixed = %d/%d, want 1/1 (the actual clamped sample sizes)",
			res.TrainBenign, res.TrainMixed)
	}
	if res.TestBenign != 1 || res.TestMalicious != 1 {
		t.Errorf("TestBenign/TestMalicious = %d/%d, want 1/1", res.TestBenign, res.TestMalicious)
	}
}

// TestSelectIsolation: selections derived from one Artifacts must not
// mutate shared state — two interleaved Select calls with different seeds
// reproduce the same splits as fresh calls.
func TestSelectIsolation(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 20)
	art, err := BuildArtifacts(context.Background(), logs.Benign, logs.Mixed, fastConfig(20))
	if err != nil {
		t.Fatal(err)
	}
	s1a := art.Select(1)
	s2 := art.Select(2)
	s1b := art.Select(1)
	if len(s1a.benignTrain) != len(s1b.benignTrain) {
		t.Fatalf("split sizes differ across repeated Select: %d vs %d", len(s1a.benignTrain), len(s1b.benignTrain))
	}
	for i := range s1a.benignTrain {
		if s1a.benignTrain[i].start != s1b.benignTrain[i].start {
			t.Fatalf("benignTrain[%d] differs across repeated Select(1)", i)
		}
	}
	if s2.seed != 2 || s1a.art != art {
		t.Error("Selection accessors broken")
	}
}
