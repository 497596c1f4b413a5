package autopilot

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/etl"
	"repro/internal/registry"
	"repro/internal/svm"
	"repro/internal/trace"
)

// LogTrainer retrains from raw .letl logs on disk — the leaps-train
// recipe. Each Train call re-reads the logs, so drift shows up as new
// content at the same paths (rotated-in captures, appended traffic).
// Fixed Params keep the retrain cheap and deterministic; leave them nil
// to grid-search each cycle.
type LogTrainer struct {
	// BenignPath and MixedPath are the training inputs.
	BenignPath string
	MixedPath  string
	// App selects the process to slice (defaults to the only one).
	App string
	// Window is the event-coalescing window (0 = core default).
	Window int
	// Params fixes the WSVM hyperparameters; nil selects cross-validated
	// grid search.
	Params *svm.Params
	// Seed is the data-selection seed.
	Seed int64
	// Lenient skips corrupt log records instead of rejecting the file.
	Lenient bool
	// Parallel bounds the pipeline worker pools (0 = all processors).
	Parallel int
}

// Train implements Trainer: parse, slice, build, fit, serialise.
func (t LogTrainer) Train(ctx context.Context) ([]byte, registry.TrainInfo, error) {
	benign, err := t.readLog(t.BenignPath)
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	mixed, err := t.readLog(t.MixedPath)
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, registry.TrainInfo{}, err
	}
	cfg := core.Config{Window: t.Window, Seed: t.Seed, Parallel: t.Parallel, FixedParams: t.Params}
	td, err := core.BuildTrainingData(benign, mixed, cfg)
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, registry.TrainInfo{}, err
	}
	clf, err := td.Train()
	if err != nil {
		return nil, registry.TrainInfo{}, err
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		return nil, registry.TrainInfo{}, err
	}
	info := registry.TrainInfo{
		App:       benign.App,
		Seed:      t.Seed,
		Lambda:    clf.Params().Lambda,
		Kernel:    fmt.Sprint(clf.Params().Kernel),
		BenignLog: t.BenignPath,
		MixedLog:  t.MixedPath,
	}
	return buf.Bytes(), info, nil
}

// readLog parses one raw log and slices the monitored process.
func (t LogTrainer) readLog(path string) (*trace.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := etl.ParseWith(f, etl.ParseOpts{Lenient: t.Lenient})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	log, err := raw.SliceApp(t.App)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, nil
}
