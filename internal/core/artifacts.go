package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/cfg"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/weight"
)

// The training pipeline is split into two tiers. Artifacts is the
// expensive first tier: everything derived purely from the logs and the
// configuration — partitioned logs, the fitted feature encoder, both CFG
// inferences, the Algorithm-2 weight assessment and the coalesced
// windows. None of it depends on Config.Seed, so the paper's 10
// seed-varied evaluation runs (§V) can share one Artifacts instead of
// recomputing the front half of the pipeline per run.
type Artifacts struct {
	// Encoder is the feature encoder fitted on both training logs.
	Encoder *preprocess.Encoder

	// BenignCFG and MixedCFG are the inferred application CFGs.
	BenignCFG *cfg.Inference
	MixedCFG  *cfg.Inference
	// Weights is the Algorithm-2 assessment of the mixed log.
	Weights *weight.Result
	// Alignment is the mixed→benign CFG alignment, set only when
	// Config.AlignCFGs was enabled.
	Alignment *cfg.Alignment

	// BenignPart and MixedPart are the partitioned training logs, one
	// event per source event, indexed by stack walk. Events sharing a
	// walk alias one split of it, so their traces are read-only shared
	// storage: a caller that must change a trace clones it first.
	BenignPart *partition.Log
	MixedPart  *partition.Log

	// benignWins holds every benign window, unsplit; the per-seed 50/50
	// split is Selection's job.
	benignWins []window
	// mixed holds all mixed windows; mixedWeight their CFG-derived WSVM
	// costs 1 − benignity, before any ShuffleWeights permutation.
	mixed       []window
	mixedWeight []float64

	cfg Config // defaults applied
}

// BuildArtifacts runs the seed-independent tier of the training pipeline
// on a benign and a mixed log: partition, fit the feature encoder, infer
// both CFGs, assess weights and coalesce windows. The benign and mixed
// branches of each stage are independent and run concurrently (bounded
// by Config.Parallel). Telemetry spans nest under ctx.
func BuildArtifacts(ctx context.Context, benign, mixed *trace.Log, config Config) (*Artifacts, error) {
	config = config.withDefaults()
	if err := config.Validate(); err != nil {
		return nil, err
	}
	if benign == nil || mixed == nil {
		return nil, errors.New("core: nil training log")
	}
	ctx, sp := telemetry.StartSpan(ctx, "train/build")
	defer sp.End()
	a := &Artifacts{cfg: config}
	par := resolveParallel(config.Parallel)

	parts, err := partitionLogs(ctx, par, []string{"benign", "mixed"}, benign, mixed)
	if err != nil {
		return nil, err
	}
	a.BenignPart, a.MixedPart = parts[0], parts[1]

	// Feature encoder fitted on all training events so cluster ids are
	// consistent across the benign and mixed sets — the one barrier
	// between the two branches.
	if a.Encoder, err = preprocess.FitContext(ctx, parts, preprocess.Config{}); err != nil {
		return nil, err
	}

	if err := a.finish(ctx); err != nil {
		return nil, err
	}
	return a, nil
}

// buildArtifactsFromParts assembles Artifacts from pre-partitioned logs
// and an already-fitted (possibly shared) encoder. config must already
// have defaults applied. Used by the universal-classifier path, where one
// encoder spans several applications.
func buildArtifactsFromParts(ctx context.Context, bp, mp *partition.Log, enc *preprocess.Encoder, config Config) (*Artifacts, error) {
	a := &Artifacts{cfg: config, Encoder: enc, BenignPart: bp, MixedPart: mp}
	if err := a.finish(ctx); err != nil {
		return nil, err
	}
	return a, nil
}

// finish runs the seed-independent back half shared by every build path:
// CFG inference, window coalescing, weight assessment and the per-window
// WSVM costs. Requires cfg, Encoder, BenignPart and MixedPart to be set.
func (a *Artifacts) finish(ctx context.Context) error {
	config := a.cfg
	par := resolveParallel(config.Parallel)

	// CFG inference and window coalescing: four independent tasks (the
	// two CFGs need only their partition, the two coalesces only the
	// encoder and their partition).
	var benignWins, mixedWins []window
	err := inParallel(par,
		func() error {
			_, sp := telemetry.StartSpan(ctx, "cfg")
			defer sp.End()
			var err error
			a.BenignCFG, err = cfg.Infer(a.BenignPart)
			return err
		},
		func() error {
			_, sp := telemetry.StartSpan(ctx, "cfg")
			defer sp.End()
			var err error
			a.MixedCFG, err = cfg.Infer(a.MixedPart)
			return err
		},
		func() error {
			_, sp := telemetry.StartSpan(ctx, "coalesce")
			defer sp.End()
			var err error
			benignWins, err = coalesce(a.Encoder, a.BenignPart, config.Window)
			return err
		},
		func() error {
			_, sp := telemetry.StartSpan(ctx, "coalesce")
			defer sp.End()
			var err error
			mixedWins, err = coalesce(a.Encoder, a.MixedPart, config.Window)
			return err
		},
	)
	if err != nil {
		return err
	}

	// Weight assessment needs both CFGs.
	_, spW := telemetry.StartSpan(ctx, "weights")
	if config.AlignCFGs {
		a.Alignment = cfg.AlignGraphs(a.BenignCFG.Graph, a.MixedCFG.Graph)
		a.Weights, err = weight.AssessAligned(a.BenignCFG.Graph, a.MixedCFG, a.Alignment, config.Weight)
	} else {
		a.Weights, err = weight.Assess(a.BenignCFG.Graph, a.MixedCFG, config.Weight)
	}
	spW.End()
	if err != nil {
		return err
	}

	a.benignWins = benignWins
	a.mixed = mixedWins
	// Mixed windows with CFG-derived weights: the WSVM cost cᵢ is the
	// confidence that the negative label is correct, 1 − benignity.
	a.mixedWeight = make([]float64, len(mixedWins))
	for i, w := range mixedWins {
		benignity := a.Weights.MeanBenignity(w.start, w.start+config.Window, unscoredBenignity)
		a.mixedWeight[i] = 1 - benignity
	}
	return nil
}

// Selection is the cheap per-seed second tier: the 50/50 benign
// train/test split and the (optionally shuffled) mixed-window weights.
// Selections share the Artifacts they were derived from and never mutate
// them, so seed-varied runs can fan out over one Artifacts concurrently.
type Selection struct {
	art  *Artifacts
	seed int64

	// benignTrain/benignTest are the benign windows after the split.
	benignTrain []window
	benignTest  []window
	// mixedWeight aliases the artifacts' base weights, or holds a
	// shuffled copy when Config.ShuffleWeights is set.
	mixedWeight []float64
}

// Select derives the per-seed tier: the benign split permutation and,
// when Config.ShuffleWeights is set, the weight shuffle, both drawn from
// one RNG seeded with seed (matching the historical single-pass
// pipeline stream byte for byte).
func (a *Artifacts) Select(seed int64) *Selection {
	rng := rand.New(rand.NewSource(seed))
	sel := &Selection{art: a, seed: seed, mixedWeight: a.mixedWeight}
	sel.benignTrain, sel.benignTest = splitBenign(rng, a.benignWins)
	if a.cfg.ShuffleWeights {
		sel.mixedWeight = append([]float64(nil), a.mixedWeight...)
		rng.Shuffle(len(sel.mixedWeight), func(i, j int) {
			sel.mixedWeight[i], sel.mixedWeight[j] = sel.mixedWeight[j], sel.mixedWeight[i]
		})
	}
	return sel
}

// splitBenign is the benign train/test split: a permutation drawn from
// rng, its first half of windows for training and the rest for testing,
// the paper's 50/50 split (§V-A2).
func splitBenign(rng *rand.Rand, wins []window) (train, test []window) {
	perm := rng.Perm(len(wins))
	nTrain := len(wins) / 2
	for i, p := range perm {
		if i < nTrain {
			train = append(train, wins[p])
		} else {
			test = append(test, wins[p])
		}
	}
	return train, test
}

// partitionLogs splits logs on up to par workers, one "partition" span
// each, and names a failing log by its entry in names. Every training
// and evaluation entry point partitions its logs here, so each log's
// distinct stack walks are split once and the stages after it (fit,
// encode, call graph, CFG) work per walk through the logs' walk index.
func partitionLogs(ctx context.Context, par int, names []string, logs ...*trace.Log) ([]*partition.Log, error) {
	parts := make([]*partition.Log, len(logs))
	tasks := make([]func() error, len(logs))
	for i, log := range logs {
		tasks[i] = func() error {
			_, sp := telemetry.StartSpan(ctx, "partition")
			defer sp.End()
			var err error
			if parts[i], err = partition.Split(log); err != nil {
				return fmt.Errorf("core: partitioning %s log: %w", names[i], err)
			}
			return nil
		}
	}
	if err := inParallel(par, tasks...); err != nil {
		return nil, err
	}
	return parts, nil
}

// resolveParallel maps the Config.Parallel knob to a worker count:
// non-positive means "use every processor".
func resolveParallel(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// inParallel runs the tasks on at most limit workers and returns the
// first error in task order (deterministic regardless of scheduling).
// limit 1 degrades to a plain sequential loop.
func inParallel(limit int, tasks ...func() error) error {
	errs := make([]error, len(tasks))
	if limit <= 1 {
		for i, task := range tasks {
			errs[i] = task()
		}
	} else {
		sem := make(chan struct{}, limit)
		var wg sync.WaitGroup
		for i, task := range tasks {
			wg.Add(1)
			go func(i int, task func() error) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				errs[i] = task()
			}(i, task)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
