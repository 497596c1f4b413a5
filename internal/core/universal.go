package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file implements the paper's §II-B2 remark that application-wise
// classifiers are an evaluation convenience only: "LEAPS can coalesce all
// application data from the system event log to learn a universal
// classifier for testing." A universal classifier trains one model over
// the benign/mixed log pairs of several applications, with one shared
// feature encoder, and tests on any application's logs.

// LogPair is one application's training material.
type LogPair struct {
	// Benign is the clean run; Mixed the infected run of the same
	// application.
	Benign *trace.Log
	Mixed  *trace.Log
}

// UniversalTrainingData aggregates per-application training data under a
// single shared feature encoder.
type UniversalTrainingData struct {
	// PerApp holds each application's pipeline artifacts (CFGs, weights,
	// windows), all encoded with the shared encoder.
	PerApp []*TrainingData
	// Encoder is the shared feature encoder fitted on every
	// application's training events.
	Encoder *preprocess.Encoder

	cfg Config
}

// BuildUniversalTrainingData runs the seed-independent pipeline tier for
// every application and re-encodes all windows with one shared encoder so
// a single classifier can be trained across applications. Per-application
// partitioning and artifact building run concurrently (bounded by
// Config.Parallel).
func BuildUniversalTrainingData(ctx context.Context, pairs []LogPair, config Config) (*UniversalTrainingData, error) {
	if len(pairs) == 0 {
		return nil, errors.New("core: no training pairs")
	}
	config = config.withDefaults()
	if err := config.Validate(); err != nil {
		return nil, err
	}
	ctx, sp := telemetry.StartSpan(ctx, "train/build")
	defer sp.End()
	par := resolveParallel(config.Parallel)

	// Partition every pair's logs; independent across pairs and sides.
	names := make([]string, 0, 2*len(pairs))
	logs := make([]*trace.Log, 0, 2*len(pairs))
	for i, p := range pairs {
		if p.Benign == nil || p.Mixed == nil {
			return nil, fmt.Errorf("core: pair %d has a nil log", i)
		}
		names = append(names, fmt.Sprintf("pair %d benign", i), fmt.Sprintf("pair %d mixed", i))
		logs = append(logs, p.Benign, p.Mixed)
	}
	parts, err := partitionLogs(ctx, par, names, logs...)
	if err != nil {
		return nil, err
	}

	// The shared encoder is the one barrier: it must see every
	// application's events before any windows are encoded.
	enc, err := preprocess.FitContext(ctx, parts, config.Preprocess)
	if err != nil {
		return nil, err
	}

	u := &UniversalTrainingData{Encoder: enc, cfg: config, PerApp: make([]*TrainingData, len(pairs))}
	appTasks := make([]func() error, len(pairs))
	for i := range pairs {
		i := i
		appTasks[i] = func() error {
			art, err := buildArtifactsFromParts(ctx, parts[2*i], parts[2*i+1], enc, config)
			if err != nil {
				return fmt.Errorf("core: pair %d: %w", i, err)
			}
			u.PerApp[i] = art.TrainingData()
			return nil
		}
	}
	if err := inParallel(par, appTasks...); err != nil {
		return nil, err
	}
	return u, nil
}

// Train fits one weighted SVM over the pooled training windows of all
// applications.
func (u *UniversalTrainingData) Train(ctx context.Context) (*Classifier, error) {
	ctx, sp := telemetry.StartSpan(ctx, "train")
	defer sp.End()
	rng := rand.New(rand.NewSource(u.cfg.Seed + 1))
	var prob svm.Problem
	for _, td := range u.PerApp {
		if _, _, err := td.sel.draw(rng, true, &prob); err != nil {
			return nil, err
		}
	}
	return fit(ctx, prob, u.Encoder, u.cfg, u.cfg.Seed)
}

// EvaluateUniversal trains the universal classifier on all pairs and tests
// it per application against that application's held-out benign windows
// and the given pure-malicious logs (one per pair, aligned by index). It
// returns one Summary per application plus the pooled summary.
func EvaluateUniversal(ctx context.Context, pairs []LogPair, malicious []*trace.Log, config Config) ([]metrics.Summary, metrics.Summary, error) {
	if len(malicious) != len(pairs) {
		return nil, metrics.Summary{}, fmt.Errorf("core: %d malicious logs for %d pairs", len(malicious), len(pairs))
	}
	u, err := BuildUniversalTrainingData(ctx, pairs, config)
	if err != nil {
		return nil, metrics.Summary{}, err
	}
	clf, err := u.Train(ctx)
	if err != nil {
		return nil, metrics.Summary{}, err
	}
	config = config.withDefaults()
	rng := rand.New(rand.NewSource(config.Seed + 2))

	names := make([]string, len(malicious))
	for i := range names {
		names[i] = fmt.Sprintf("pair %d malicious", i)
	}
	malParts, err := partitionLogs(ctx, resolveParallel(config.Parallel), names, malicious...)
	if err != nil {
		return nil, metrics.Summary{}, err
	}

	var pooled metrics.Confusion
	perApp := make([]metrics.Summary, len(pairs))
	for i, td := range u.PerApp {
		malWins, err := coalesce(u.Encoder, malParts[i], config.Window)
		if err != nil {
			return nil, metrics.Summary{}, err
		}
		testBenign, err := sampleWindows(rng, td.sel.benignTest, config.SampleFraction)
		if err != nil {
			return nil, metrics.Summary{}, fmt.Errorf("sampling benign test windows: %w", err)
		}
		testMal, err := sampleWindows(rng, malWins, config.SampleFraction)
		if err != nil {
			return nil, metrics.Summary{}, fmt.Errorf("sampling malicious test windows: %w", err)
		}
		conf, _ := clf.test(testBenign, testMal)
		perApp[i] = conf.Summary()
		pooled.TP += conf.TP
		pooled.TN += conf.TN
		pooled.FP += conf.FP
		pooled.FN += conf.FN
	}
	return perApp, pooled.Summary(), nil
}
