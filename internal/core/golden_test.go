package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/svm"
)

// goldenModelsPath holds what the trainers and the evaluation protocol
// produced on fixed logs and seeds before their sampling, fitting and
// partitioning stages were merged: the SHA-256 of every saved model (in
// bundle format v3, whose bytes depend on the model alone), the digest
// of its detections, and the printed evaluation summaries. It is the
// training path's cross-commit reference; a change that means to alter
// trained models or their bundle bytes must say so and rewrite it.
const goldenModelsPath = "testdata/trained_models.golden.json"

// trainedGolden is the golden record; JSON sorts the map keys.
type trainedGolden struct {
	// Models maps a training case to the SHA-256 of its Save bytes.
	Models map[string]string
	// Detections maps a case to the SHA-256 of its DetectLog output on
	// the malicious log, printed with %v.
	Detections map[string]string
	// Summaries maps an evaluation to its result printed with %#v, which
	// keeps every float at full precision (Summary's String rounds).
	Summaries map[string]string
}

func saveDigest(t *testing.T, clf *Classifier) string {
	t.Helper()
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func detectDigest(t *testing.T, detect func() ([]Detection, error)) string {
	t.Helper()
	dets, err := detect()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fmt.Appendf(nil, "%v", dets))
	return hex.EncodeToString(sum[:])
}

// trainGolden trains and evaluates every golden case at the given
// Config.Parallel.
func trainGolden(t *testing.T, parallel int) trainedGolden {
	t.Helper()
	ctx := context.Background()
	g := trainedGolden{Models: map[string]string{}, Detections: map[string]string{}, Summaries: map[string]string{}}
	logs := genLogs(t, "vim_reverse_tcp", 41)
	config := func(mut func(*Config)) Config {
		c := fastConfig(41)
		c.Parallel = parallel
		if mut != nil {
			mut(&c)
		}
		return c
	}
	train := func(c Config, unweighted bool) *Classifier {
		td, err := BuildTrainingData(logs.Benign, logs.Mixed, c)
		if err != nil {
			t.Fatal(err)
		}
		clf, err := td.sel.train(context.Background(), !unweighted)
		if err != nil {
			t.Fatal(err)
		}
		return clf
	}

	weighted := train(config(nil), false)
	g.Models["weighted"] = saveDigest(t, weighted)
	g.Models["unweighted"] = saveDigest(t, train(config(nil), true))
	g.Models["shuffled"] = saveDigest(t, train(config(func(c *Config) { c.ShuffleWeights = true }), false))
	// The default grid on three folds: small, yet the fold shuffle's
	// seed decides between two of its points here.
	defer func(grid svm.GridSpec) { searchGrid = grid }(searchGrid)
	searchGrid.Folds = 3
	g.Models["grid"] = saveDigest(t, train(config(func(c *Config) { c.FixedParams = nil }), false))

	g.Detections["weighted"] = detectDigest(t, func() ([]Detection, error) { return weighted.DetectLog(logs.Malicious) })
	degraded := &Monitor{cg: weighted.cg, window: weighted.window}
	g.Detections["degraded"] = detectDigest(t, func() ([]Detection, error) { return degraded.DetectLog(logs.Malicious) })

	pairs, malicious := universalFixtures(t)
	u, err := BuildUniversalTrainingData(ctx, pairs, config(nil))
	if err != nil {
		t.Fatal(err)
	}
	uclf, err := u.Train(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g.Models["universal"] = saveDigest(t, uclf)

	runs, err := EvaluateRuns(ctx, logs.Benign, logs.Mixed, logs.Malicious, config(nil), 3)
	if err != nil {
		t.Fatal(err)
	}
	g.Summaries["EvaluateRuns"] = fmt.Sprintf("%#v", *runs)
	oneClass, err := EvaluateOneClass(ctx, logs.Benign, logs.Malicious, config(nil))
	if err != nil {
		t.Fatal(err)
	}
	g.Summaries["EvaluateOneClass"] = fmt.Sprintf("%#v", oneClass)
	perApp, pooled, err := EvaluateUniversal(ctx, pairs, malicious, config(nil))
	if err != nil {
		t.Fatal(err)
	}
	g.Summaries["EvaluateUniversal"] = fmt.Sprintf("%#v %#v", perApp, pooled)
	return g
}

// TestTrainedModelsGolden holds the trainers (weighted, unweighted,
// shuffled weights, grid-searched and universal), batch detection and the
// evaluation summaries to the committed golden, serially and at full
// parallelism.
func TestTrainedModelsGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenModelsPath)
	if err != nil {
		t.Fatal(err)
	}
	var want trainedGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 0} {
		got := trainGolden(t, parallel)
		if !reflect.DeepEqual(got, want) {
			out, _ := json.MarshalIndent(got, "", "  ")
			t.Errorf("Parallel=%d: trained models differ from %s; got\n%s", parallel, goldenModelsPath, out)
		}
	}
}
