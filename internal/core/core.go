// Package core wires the LEAPS pipeline together: raw logs → stack
// partitioning → feature preprocessing → CFG inference → weight assessment
// → weighted SVM training → testing-phase classification. It implements
// both the paper's evaluation protocol (benign/mixed/malicious dataset
// triples, §V) and a user-facing Detector for applying a trained model to
// new logs.
//
// The training pipeline is two-tiered: BuildArtifacts computes every
// seed-independent artifact once per dataset, and Artifacts.Select
// derives the cheap per-seed Selection (split, sampling, weight shuffle)
// that the trainers and the evaluation protocol consume.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/callgraph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/weight"
)

// Pipeline telemetry: batch-detection volume and verdict mix. Training
// effort is covered by spans ("train", "train/build" and children) and by
// the per-package metrics of the stage implementations.
var (
	mDetectWindows   = telemetry.NewCounter("core_detect_windows_total", "windows classified by batch detection")
	mDetectMalicious = telemetry.NewCounter("core_detect_malicious_total", "windows flagged malicious by batch detection")
)

// ErrNoWindows reports a window-sampling request over an empty window set,
// typically a log shorter than one coalescing window.
var ErrNoWindows = errors.New("core: no windows to sample")

// ErrBadSampleFraction reports a sampling fraction that cannot select
// anything (non-positive or NaN).
var ErrBadSampleFraction = errors.New("core: sample fraction must be positive")

// Config controls the pipeline. The zero value reproduces the paper's
// settings where they are specified.
type Config struct {
	// Window is the event-coalescing width; default 10 (30 feature
	// dimensions, §V-A2).
	Window int
	// TrainFraction is the share of benign windows used for training
	// (the rest test); default 0.5.
	TrainFraction float64
	// SampleFraction subsamples every selection (training and testing);
	// default 0.2, per §V-A2.
	SampleFraction float64
	// Grid is the λ/σ² search space for model selection; zero value uses
	// svm.DefaultGrid(). Ignored when FixedParams is set.
	Grid svm.GridSpec
	// FixedParams skips cross-validated model selection.
	FixedParams *svm.Params
	// Preprocess configures the feature clustering.
	Preprocess preprocess.Config
	// Weight configures CFG weight assessment.
	Weight weight.Config
	// ShuffleWeights randomly permutes the mixed-window weights before
	// training — the ablation that checks the weights carry signal, not
	// just their distribution.
	ShuffleWeights bool
	// AlignCFGs enables the §VI-A extension: before weight assessment the
	// mixed CFG is structurally aligned onto the benign CFG, recovering
	// correct weights when the trojaned binary was recompiled from source
	// (benign code shifted).
	AlignCFGs bool
	// Seed drives data selection (and weight shuffling).
	Seed int64
	// Parallel bounds the worker pools of the pipeline's concurrent
	// sections: the benign/mixed branches of artifact building, the grid
	// points of model selection, and the runs of EvaluateRuns. 0 uses
	// every processor; 1 forces the serial path. Every randomised step
	// derives its RNG from its own seed, so results are identical for
	// any Parallel value.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 10
	}
	if c.TrainFraction == 0 {
		c.TrainFraction = 0.5
	}
	if c.SampleFraction == 0 {
		c.SampleFraction = 0.2
	}
	if len(c.Grid.Lambdas) == 0 {
		c.Grid = svm.DefaultGrid()
	}
	return c
}

// Validate rejects out-of-range configuration.
func (c Config) Validate() error {
	if c.Window < 0 {
		return fmt.Errorf("core: Window %d must be non-negative", c.Window)
	}
	if c.TrainFraction < 0 || c.TrainFraction > 1 {
		return fmt.Errorf("core: TrainFraction %v out of [0,1]", c.TrainFraction)
	}
	if c.SampleFraction < 0 || c.SampleFraction > 1 {
		return fmt.Errorf("core: SampleFraction %v out of [0,1]", c.SampleFraction)
	}
	if c.Parallel < 0 {
		return fmt.Errorf("core: Parallel %d must be non-negative", c.Parallel)
	}
	return nil
}

// window is one coalesced data point with provenance.
type window struct {
	vec   []float64
	start int // first event ordinal
}

// TrainingData is the classic single-seed view over the two pipeline
// tiers: the seed-independent Artifacts plus the Selection derived from
// Config.Seed. Tools use it to inspect intermediate artifacts (CFGs,
// weights, encoders).
type TrainingData struct {
	*Artifacts
	sel *Selection
}

// unscoredBenignity is the benignity default for events that contributed
// no CFG path: maximal uncertainty.
const unscoredBenignity = 0.5

// BuildTrainingData runs the full training-phase data pipeline on a
// benign and a mixed log: BuildArtifacts plus the Config.Seed selection.
func BuildTrainingData(benign, mixed *trace.Log, config Config) (*TrainingData, error) {
	art, err := BuildArtifacts(context.Background(), benign, mixed, config)
	if err != nil {
		return nil, err
	}
	return art.TrainingData(), nil
}

// TrainingData bundles the artifacts with the Config.Seed selection.
func (a *Artifacts) TrainingData() *TrainingData {
	return &TrainingData{Artifacts: a, sel: a.Select(a.cfg.Seed)}
}

// Selection exposes the per-seed tier (benign split, effective weights).
func (td *TrainingData) Selection() *Selection { return td.sel }

// coalesce encodes and windows one partitioned log.
func coalesce(enc *preprocess.Encoder, log *partition.Log, windowSize int) ([]window, error) {
	tuples := enc.EncodeAll(log)
	vecs, starts, err := preprocess.Coalesce(tuples, windowSize)
	if err != nil {
		return nil, err
	}
	out := make([]window, len(vecs))
	for i := range vecs {
		out[i] = window{vec: vecs[i], start: starts[i]}
	}
	return out, nil
}

// sampleIndices draws ⌈fraction·n⌉ indices without replacement. It
// rejects an empty set (ErrNoWindows) and a non-positive or NaN fraction
// (ErrBadSampleFraction) instead of silently producing zero samples; a
// fraction ≥ 1 selects everything in order without consuming the RNG.
// Every sampling site (benign windows, joint mixed windows + weights)
// goes through this one function so the rounding and edge-case rules
// cannot drift apart.
func sampleIndices(rng *rand.Rand, n int, fraction float64) ([]int, error) {
	if n == 0 {
		return nil, ErrNoWindows
	}
	if fraction <= 0 || math.IsNaN(fraction) {
		return nil, fmt.Errorf("%w (got %v)", ErrBadSampleFraction, fraction)
	}
	if fraction >= 1 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx, nil
	}
	k := int(float64(n)*fraction + 0.5)
	if k < 1 {
		k = 1
	}
	return rng.Perm(n)[:k], nil
}

// sampleWindows draws ⌈fraction·n⌉ windows without replacement under the
// sampleIndices rules.
func sampleWindows(rng *rand.Rand, wins []window, fraction float64) ([]window, error) {
	idx, err := sampleIndices(rng, len(wins), fraction)
	if err != nil {
		return nil, err
	}
	out := make([]window, len(idx))
	for i, p := range idx {
		out[i] = wins[p]
	}
	return out, nil
}

// draw appends this selection's training sample to prob, with X holding
// the raw window vectors: the benign draw first (label +1), then the
// mixed draw (label −1, weighted by its CFG-derived cost when weighted),
// both under the sampleIndices rules. It reports the sampled set sizes.
// Every WSVM trainer samples through draw, per application in order, so
// the RNG stream is the same whichever trainer consumes it.
func (s *Selection) draw(rng *rand.Rand, weighted bool, prob *svm.Problem) (nBenign, nMixed int, err error) {
	fraction := s.art.cfg.SampleFraction
	benign, err := sampleIndices(rng, len(s.benignTrain), fraction)
	if err != nil {
		return 0, 0, fmt.Errorf("sampling benign training windows: %w", err)
	}
	mixed, err := sampleIndices(rng, len(s.art.mixed), fraction)
	if err != nil {
		return 0, 0, fmt.Errorf("sampling mixed training windows: %w", err)
	}
	prob.X = slices.Grow(prob.X, len(benign)+len(mixed))
	for _, p := range benign {
		prob.X = append(prob.X, s.benignTrain[p].vec)
		prob.Y = append(prob.Y, 1)
		if weighted {
			prob.Weight = append(prob.Weight, 1)
		}
	}
	for _, p := range mixed {
		prob.X = append(prob.X, s.art.mixed[p].vec)
		prob.Y = append(prob.Y, -1)
		if weighted {
			prob.Weight = append(prob.Weight, s.mixedWeight[p])
		}
	}
	return len(benign), len(mixed), nil
}

// fit is the one fit path of the WSVM trainers. Given a drawn problem
// whose X holds raw window vectors, it fits the scaler and scales X, then
// has svm.Fit fix (λ, σ²) or grid-search them with folds seeded by seed
// and run SMO, and calibrates Platt scaling on the training decisions
// svm.Fit returns. Spans nest under ctx.
func fit(ctx context.Context, prob svm.Problem, enc *preprocess.Encoder, cfg Config, seed int64) (*Classifier, error) {
	scaler, err := svm.FitScaler(prob.X)
	if err != nil {
		return nil, err
	}
	for i, v := range prob.X {
		// Replace the row, never scale through it: rows alias the
		// artifacts' window vectors.
		prob.X[i] = scaler.ApplyInto(make([]float64, 0, len(v)), v)
	}
	grid := cfg.Grid
	grid.Seed = seed
	if grid.Parallel == 0 {
		grid.Parallel = cfg.Parallel
	}
	params, model, dec, err := svm.Fit(ctx, prob, cfg.FixedParams, grid)
	if err != nil {
		return nil, err
	}
	_, spPlatt := telemetry.StartSpan(ctx, "platt")
	platt, _ := svm.FitPlatt(dec, prob.Y) // best-effort: nil on degenerate inputs
	spPlatt.End()
	return &Classifier{enc: enc, scaler: scaler, model: model, platt: platt, window: cfg.Window, params: params}, nil
}

// Classifier is a trained LEAPS model (the WSVM path) ready for the
// testing phase.
type Classifier struct {
	enc    *preprocess.Encoder
	scaler *svm.Scaler
	model  *svm.Model
	platt  *svm.PlattScaler
	window int
	params svm.Params
	// cg is the call-graph baseline trained on the same logs. It travels
	// with the classifier (persisted since file version 2) so a Monitor
	// can degrade to it when the statistical sections are unusable. Nil
	// for classifiers loaded from version-1 files.
	cg *callgraph.Model
	// trainBenign/trainMixed are the actual sampled training-set sizes
	// (zero for classifiers loaded from disk).
	trainBenign, trainMixed int
}

// Params returns the SVM parameters the classifier was trained with.
func (c *Classifier) Params() svm.Params { return c.params }

// Model exposes the underlying SVM model (e.g. for support-vector counts).
func (c *Classifier) Model() *svm.Model { return c.model }

// CallGraph exposes the bundled call-graph baseline (nil when the
// classifier was loaded from a file predating it).
func (c *Classifier) CallGraph() *callgraph.Model { return c.cg }

// TrainSizes reports the actual sampled training-set sizes (benign and
// mixed windows); both zero for classifiers loaded from disk.
func (c *Classifier) TrainSizes() (benign, mixed int) {
	return c.trainBenign, c.trainMixed
}

// Train fits the CFG-guided weighted SVM classifier on the training data.
func (td *TrainingData) Train() (*Classifier, error) {
	return td.sel.train(context.Background(), true)
}

// TrainUnweighted fits the plain-SVM comparison model (all weights 1).
func (td *TrainingData) TrainUnweighted() (*Classifier, error) {
	return td.sel.train(context.Background(), false)
}

// Train fits the CFG-guided weighted SVM classifier on this selection.
// Telemetry spans nest under ctx.
func (s *Selection) Train(ctx context.Context) (*Classifier, error) {
	return s.train(ctx, true)
}

// TrainUnweighted fits the plain-SVM comparison model (all weights 1).
func (s *Selection) TrainUnweighted(ctx context.Context) (*Classifier, error) {
	return s.train(ctx, false)
}

// train fits a classifier on this selection's draw from an RNG seeded
// seed+1 and adds the call-graph baseline trained on the same logs.
func (s *Selection) train(ctx context.Context, weighted bool) (*Classifier, error) {
	ctx, sp := telemetry.StartSpan(ctx, "train")
	defer sp.End()
	var prob svm.Problem
	nBenign, nMixed, err := s.draw(rand.New(rand.NewSource(s.seed+1)), weighted, &prob)
	if err != nil {
		return nil, err
	}
	clf, err := fit(ctx, prob, s.art.Encoder, s.art.cfg, s.seed)
	if err != nil {
		return nil, err
	}
	clf.trainBenign, clf.trainMixed = nBenign, nMixed
	_, spCG := telemetry.StartSpan(ctx, "callgraph")
	defer spCG.End()
	if clf.cg, err = callgraph.Train(s.art.BenignPart, s.art.MixedPart); err != nil {
		return nil, err
	}
	return clf, nil
}

// Detection is one classified window of a log.
type Detection struct {
	// FirstEvent and LastEvent bound the window (event ordinals).
	FirstEvent, LastEvent int
	// Score is the decision value; negative means malicious.
	Score float64
	// Probability is the Platt-calibrated probability that the window is
	// malicious (0.5 when no calibration is available).
	Probability float64
	// Malicious is the verdict.
	Malicious bool
}

// DetectLog applies the classifier to a full log (the testing phase's
// application slicing is assumed done: one process per log).
func (c *Classifier) DetectLog(log *trace.Log) ([]Detection, error) {
	return c.DetectLogContext(context.Background(), log)
}

// DetectLogContext is DetectLog with its telemetry span nested under ctx.
func (c *Classifier) DetectLogContext(ctx context.Context, log *trace.Log) ([]Detection, error) {
	return NewMonitor(c).detectLog(ctx, log)
}

// test scores the held-out test windows, benign first, into a confusion
// matrix and sweeps the decision values for the area under the ROC curve
// (NaN when undefined).
func (c *Classifier) test(testBenign, testMal []window) (metrics.Confusion, float64) {
	var conf metrics.Confusion
	scores := make([]float64, 0, len(testBenign)+len(testMal))
	labels := make([]bool, 0, len(testBenign)+len(testMal))
	var buf []float64
	for _, set := range []struct {
		wins   []window
		benign bool
	}{{testBenign, true}, {testMal, false}} {
		for _, w := range set.wins {
			buf = c.scaler.ApplyInto(buf[:0], w.vec)
			score := c.model.Decision(buf)
			conf.Add(set.benign, score >= 0)
			scores = append(scores, score)
			labels = append(labels, set.benign)
		}
	}
	_, auc, err := metrics.ROC(scores, labels)
	if err != nil {
		auc = math.NaN()
	}
	return conf, auc
}

// cgraphClassify runs the call-graph baseline over windows, resolving each
// from the partitioned log's events. Undecided verdicts count as
// misclassifications of the true class.
func cgraphClassify(m *callgraph.Model, part *partition.Log, wins []window, windowSize int, actualBenign bool, conf *metrics.Confusion, undecided *int) {
	for _, w := range wins {
		end := w.start + windowSize
		if end > part.Len() {
			end = part.Len()
		}
		v := m.ClassifyWindow(part.Events[w.start:end])
		if v == callgraph.VerdictUndecided {
			*undecided++
		}
		conf.Add(actualBenign, v == callgraph.VerdictBenign)
	}
}
