package core

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/svm"
)

// fastConfig avoids grid search so tests stay quick.
func fastConfig(seed int64) Config {
	return Config{
		Seed:        seed,
		FixedParams: &svm.Params{Lambda: 8, Kernel: svm.RBFKernel{Sigma2: 2}},
	}
}

func genLogs(t testing.TB, name string, seed int64) *dataset.Logs {
	t.Helper()
	spec, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	logs, err := spec.Generate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return logs
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"zero value ok", Config{}, false},
		{"negative window", Config{Window: -1}, true},
		{"sample fraction negative", Config{SampleFraction: -0.1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuildTrainingDataValidation(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 1)
	if _, err := BuildTrainingData(nil, logs.Mixed, fastConfig(1)); err == nil {
		t.Error("nil benign accepted")
	}
	if _, err := BuildTrainingData(logs.Benign, nil, fastConfig(1)); err == nil {
		t.Error("nil mixed accepted")
	}
	bad := fastConfig(1)
	bad.SampleFraction = 2
	if _, err := BuildTrainingData(logs.Benign, logs.Mixed, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestBuildTrainingDataArtifacts(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 2)
	td, err := BuildTrainingData(logs.Benign, logs.Mixed, fastConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if td.BenignCFG.Graph.NumNodes() == 0 || td.MixedCFG.Graph.NumNodes() == 0 {
		t.Fatal("empty inferred CFGs")
	}
	if td.MixedCFG.Graph.NumNodes() <= td.BenignCFG.Graph.NumNodes() {
		t.Error("mixed CFG not larger than benign CFG despite payload code")
	}
	if !slices.ContainsFunc(td.MixedPart.Events, func(e partition.Event) bool { return td.Weights.Benignity(e.Seq, -1) >= 0 }) {
		t.Fatal("no event weights assessed")
	}
	// Split sizes: roughly 50/50 of benign windows.
	total := len(td.sel.benignTrain) + len(td.sel.benignTest)
	if total == 0 {
		t.Fatal("no benign windows")
	}
	if d := len(td.sel.benignTrain) - len(td.sel.benignTest); d < -1 || d > 1 {
		t.Errorf("benign split = %d/%d, want near-even", len(td.sel.benignTrain), len(td.sel.benignTest))
	}
	if len(td.mixed) == 0 || len(td.mixedWeight) != len(td.mixed) {
		t.Fatalf("mixed windows/weights = %d/%d", len(td.mixed), len(td.mixedWeight))
	}
	for i, w := range td.mixedWeight {
		if w < 0 || w > 1 || math.IsNaN(w) {
			t.Fatalf("mixed weight %d = %v out of [0,1]", i, w)
		}
	}
}

func TestTrainAndDetect(t *testing.T) {
	logs := genLogs(t, "winscp_reverse_tcp", 3)
	td, err := BuildTrainingData(logs.Benign, logs.Mixed, fastConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		t.Fatal(err)
	}
	if clf.Model().NumSVs() == 0 {
		t.Fatal("classifier has no support vectors")
	}
	if clf.Params().Lambda != 8 {
		t.Errorf("Params().Lambda = %v, want fixed 8", clf.Params().Lambda)
	}

	// Detections on the pure malicious log: overwhelmingly malicious.
	dets, err := clf.DetectLog(logs.Malicious)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) == 0 {
		t.Fatal("no detections on malicious log")
	}
	var mal int
	for _, d := range dets {
		if d.Malicious != (d.Score < 0) {
			t.Fatal("Detection.Malicious inconsistent with Score")
		}
		if d.LastEvent-d.FirstEvent != 9 {
			t.Fatalf("window bounds = [%d,%d]", d.FirstEvent, d.LastEvent)
		}
		if d.Malicious {
			mal++
		}
	}
	if frac := float64(mal) / float64(len(dets)); frac < 0.7 {
		t.Errorf("malicious detection rate = %.2f, want >= 0.7", frac)
	}

	// Detections on the benign log: mostly benign.
	dets, err = clf.DetectLog(logs.Benign)
	if err != nil {
		t.Fatal(err)
	}
	mal = 0
	for _, d := range dets {
		if d.Malicious {
			mal++
		}
	}
	if frac := float64(mal) / float64(len(dets)); frac > 0.35 {
		t.Errorf("false-alarm rate on benign log = %.2f, want <= 0.35", frac)
	}
}

func TestEvaluateOrdering(t *testing.T) {
	// The paper's headline: WSVM beats SVM beats (roughly) CGraph.
	for _, name := range []string{"vim_codeinject", "winscp_reverse_tcp_online"} {
		t.Run(name, func(t *testing.T) {
			logs := genLogs(t, name, 4)
			res, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(4))
			if err != nil {
				t.Fatal(err)
			}
			if res.WSVM.ACC <= res.SVM.ACC {
				t.Errorf("WSVM ACC %.3f not above SVM ACC %.3f", res.WSVM.ACC, res.SVM.ACC)
			}
			if res.WSVM.ACC <= res.CGraph.ACC {
				t.Errorf("WSVM ACC %.3f not above CGraph ACC %.3f", res.WSVM.ACC, res.CGraph.ACC)
			}
			if res.WSVM.TPR <= res.CGraph.TPR {
				t.Errorf("WSVM TPR %.3f not above CGraph TPR %.3f", res.WSVM.TPR, res.CGraph.TPR)
			}
			if res.TestBenign == 0 || res.TestMalicious == 0 {
				t.Error("empty test sets")
			}
			if res.MeanMixedWeight <= 0 || res.MeanMixedWeight >= 1 {
				t.Errorf("MeanMixedWeight = %v", res.MeanMixedWeight)
			}
		})
	}
}

func TestEvaluateValidation(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 5)
	if _, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, nil, fastConfig(5)); err == nil {
		t.Error("nil malicious accepted")
	}
}

func TestEvaluateRuns(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 6)
	res, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(6), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.WSVM.ACC) || res.WSVM.ACC <= 0.5 {
		t.Errorf("averaged WSVM ACC = %v", res.WSVM.ACC)
	}
	if _, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(6), 0); err == nil {
		t.Error("runs=0 accepted")
	}
}

func TestShuffleWeightsAblationDegrades(t *testing.T) {
	logs := genLogs(t, "winscp_reverse_tcp", 7)
	cfg := fastConfig(7)
	normal, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShuffleWeights = true
	shuffled, err := EvaluateRuns(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled weights destroy the CFG signal: accuracy must drop.
	if shuffled.WSVM.ACC >= normal.WSVM.ACC {
		t.Errorf("shuffled WSVM ACC %.3f not below intact %.3f",
			shuffled.WSVM.ACC, normal.WSVM.ACC)
	}
}

func TestDeterministicEvaluate(t *testing.T) {
	logs := genLogs(t, "putty_reverse_tcp", 8)
	a, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if a.WSVM != b.WSVM || a.SVM != b.SVM || a.CGraph != b.CGraph {
		t.Error("same seed produced different evaluation results")
	}
}

func TestEvaluateWithHMM(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 9)
	res, err := EvaluateWithHMM(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HMMIncluded {
		t.Fatal("HMMIncluded = false")
	}
	if math.IsNaN(res.HMM.ACC) || res.HMM.ACC < 0.5 {
		t.Errorf("HMM ACC = %v, want informative classifier", res.HMM.ACC)
	}
	// Plain Evaluate must not spend time on the HMM.
	plain, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if plain.HMMIncluded {
		t.Error("Evaluate set HMMIncluded")
	}
}

func TestEvaluateReportsAUC(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 10)
	res, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(10))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.WSVMAUC) || res.WSVMAUC < 0.6 {
		t.Errorf("WSVM AUC = %v, want well above chance", res.WSVMAUC)
	}
	if math.IsNaN(res.SVMAUC) {
		t.Errorf("SVM AUC = %v", res.SVMAUC)
	}
	if res.WSVMAUC < res.SVMAUC-0.1 {
		t.Errorf("WSVM AUC %v far below SVM AUC %v", res.WSVMAUC, res.SVMAUC)
	}
}

func TestAlignCFGsOnSourceTrojan(t *testing.T) {
	spec, err := dataset.SourceTrojanVariant("vim_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	logs, err := spec.Generate(33)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig(33)
	unaligned, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AlignCFGs = true
	aligned, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if aligned.WSVM.ACC <= unaligned.WSVM.ACC {
		t.Errorf("aligned ACC %.3f not above unaligned %.3f",
			aligned.WSVM.ACC, unaligned.WSVM.ACC)
	}
	// Diagnostic: the mean mixed weight must rise once benign paths are
	// recognised again (fewer windows treated as confident negatives).
	if aligned.MeanMixedWeight >= unaligned.MeanMixedWeight {
		t.Errorf("aligned mean weight %.3f not below unaligned %.3f (weights should shrink for benign windows)",
			aligned.MeanMixedWeight, unaligned.MeanMixedWeight)
	}
}

func TestEvaluateOneClass(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 12)
	s, err := EvaluateOneClass(context.Background(), logs.Benign, logs.Malicious, fastConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(s.ACC) {
		t.Fatal("one-class ACC undefined")
	}
	// The baseline accepts some held-out benign windows, but far fewer
	// than its ν=0.05 training-rejection rate suggests: the discrete
	// 30-dim feature space is sparsely covered by the training sample,
	// so unseen-but-benign combinations fall outside the learned region
	// — one of the reasons anomaly-only detection underperforms here.
	if s.TPR < 0.25 {
		t.Errorf("one-class TPR = %v, want >= 0.25", s.TPR)
	}
	// ...and the known headline result: without mixed training data it
	// cannot compete with the CFG-guided WSVM.
	res, err := Evaluate(context.Background(), logs.Benign, logs.Mixed, logs.Malicious, fastConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	if s.ACC >= res.WSVM.ACC {
		t.Errorf("one-class ACC %v unexpectedly beats WSVM %v", s.ACC, res.WSVM.ACC)
	}
	if _, err := EvaluateOneClass(context.Background(), nil, logs.Malicious, fastConfig(12)); err == nil {
		t.Error("nil benign accepted")
	}
	if _, err := EvaluateOneClass(context.Background(), logs.Benign, nil, fastConfig(12)); err == nil {
		t.Error("nil malicious accepted")
	}
}
