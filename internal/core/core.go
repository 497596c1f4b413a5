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
	"sync"

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

// trainProblem assembles the (possibly weighted) SVM problem from sampled
// training windows. Scaling is fitted here. The mixed windows and their
// weights are sampled jointly by index, through the same sampleIndices
// rules as the benign windows. It reports the actual sampled set sizes.
func (s *Selection) trainProblem(rng *rand.Rand, weighted bool) (svm.Problem, *svm.Scaler, int, int, error) {
	fraction := s.art.cfg.SampleFraction
	benign, err := sampleWindows(rng, s.benignTrain, fraction)
	if err != nil {
		return svm.Problem{}, nil, 0, 0, fmt.Errorf("sampling benign training windows: %w", err)
	}
	mixedIdx, err := sampleIndices(rng, len(s.art.mixed), fraction)
	if err != nil {
		return svm.Problem{}, nil, 0, 0, fmt.Errorf("sampling mixed training windows: %w", err)
	}

	var prob svm.Problem
	raw := make([][]float64, 0, len(benign)+len(mixedIdx))
	for _, w := range benign {
		raw = append(raw, w.vec)
		prob.Y = append(prob.Y, 1)
		if weighted {
			prob.Weight = append(prob.Weight, 1)
		}
	}
	for _, p := range mixedIdx {
		raw = append(raw, s.art.mixed[p].vec)
		prob.Y = append(prob.Y, -1)
		if weighted {
			prob.Weight = append(prob.Weight, s.mixedWeight[p])
		}
	}
	scaler, err := svm.FitScaler(raw)
	if err != nil {
		return svm.Problem{}, nil, 0, 0, err
	}
	prob.X = scaler.ApplyAll(raw)
	return prob, scaler, len(benign), len(mixedIdx), nil
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

func (s *Selection) train(ctx context.Context, weighted bool) (*Classifier, error) {
	ctx, sp := telemetry.StartSpan(ctx, "train")
	defer sp.End()
	cfg := s.art.cfg
	rng := rand.New(rand.NewSource(s.seed + 1))
	prob, scaler, nBenign, nMixed, err := s.trainProblem(rng, weighted)
	if err != nil {
		return nil, err
	}
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	var params svm.Params
	if cfg.FixedParams != nil {
		params = *cfg.FixedParams
	} else {
		grid := cfg.Grid
		grid.Seed = s.seed
		if grid.Parallel == 0 {
			grid.Parallel = cfg.Parallel
		}
		_, spGrid := telemetry.StartSpan(ctx, "gridsearch")
		best, _, err := svm.GridSearch(prob, grid)
		spGrid.End()
		if err != nil {
			return nil, err
		}
		params = best
	}
	_, spSMO := telemetry.StartSpan(ctx, "smo")
	model, err := svm.Train(prob, params)
	spSMO.End()
	if err != nil {
		return nil, err
	}
	_, spCG := telemetry.StartSpan(ctx, "callgraph")
	cg, err := callgraph.Train(s.art.BenignPart, s.art.MixedPart)
	spCG.End()
	if err != nil {
		return nil, err
	}
	_, spPlatt := telemetry.StartSpan(ctx, "platt")
	platt := fitPlatt(model, prob)
	spPlatt.End()
	return &Classifier{
		enc:         s.art.Encoder,
		scaler:      scaler,
		model:       model,
		platt:       platt,
		window:      cfg.Window,
		params:      params,
		cg:          cg,
		trainBenign: nBenign,
		trainMixed:  nMixed,
	}, nil
}

// fitPlatt calibrates a probability sigmoid on the training decisions;
// calibration is best-effort (nil on degenerate inputs).
func fitPlatt(model *svm.Model, prob svm.Problem) *svm.PlattScaler {
	dec := make([]float64, len(prob.X))
	for i, x := range prob.X {
		dec[i] = model.Decision(x)
	}
	p, err := svm.FitPlatt(dec, prob.Y)
	if err != nil {
		return nil
	}
	return p
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

// detectScratch is the pooled working memory of one DetectLog pass: the
// featurizer (partition and encoder scratch plus its stack-walk memo),
// the tuple and window buffers and the scaled-vector buffer. Everything
// it backs is consumed before DetectLogContext returns — only the fresh
// Detection slice escapes — so recycling through a pool keeps concurrent
// detections (serve workers, shadow canary) safe while making the steady
// state nearly allocation-free.
type detectScratch struct {
	feat   featurizer
	tuples []preprocess.Tuple
	wins   preprocess.WindowBuf
	vec    []float64
}

var detectScratchPool = sync.Pool{New: func() any { return new(detectScratch) }}

// DetectLogContext is DetectLog with telemetry spans nested under ctx.
func (c *Classifier) DetectLogContext(ctx context.Context, log *trace.Log) ([]Detection, error) {
	ctx, sp := telemetry.StartSpan(ctx, "detect")
	defer sp.End()
	if log == nil {
		return nil, errors.New("core: nil log")
	}
	if log.Modules == nil {
		return nil, errors.New("core: log has no module map")
	}
	ds := detectScratchPool.Get().(*detectScratch)
	defer detectScratchPool.Put(ds)
	_, spFeat := telemetry.StartSpan(ctx, "featurize")
	// The memo holds only for this log's module map and this
	// classifier's encoder, so every call starts it empty.
	ds.feat.reset(log.App, log.PID, log.Modules)
	var err error
	ds.tuples, err = ds.feat.appendTuples(ds.tuples[:0], c.enc, log.Events)
	if err == nil {
		err = preprocess.CoalesceInto(&ds.wins, ds.tuples, c.window)
	}
	spFeat.End()
	if err != nil {
		return nil, err
	}
	_, spScore := telemetry.StartSpan(ctx, "score")
	defer spScore.End()
	out := make([]Detection, len(ds.wins.Vecs))
	var malicious uint64
	for i, v := range ds.wins.Vecs {
		ds.vec = c.scaler.ApplyInto(ds.vec[:0], v)
		score := c.model.Decision(ds.vec)
		pMal := 0.5
		if c.platt != nil {
			pMal = 1 - c.platt.Probability(score)
		}
		out[i] = Detection{
			FirstEvent:  ds.wins.Starts[i],
			LastEvent:   ds.wins.Starts[i] + c.window - 1,
			Score:       score,
			Probability: pMal,
			Malicious:   score < 0,
		}
		if out[i].Malicious {
			malicious++
		}
	}
	mDetectWindows.Add(uint64(len(out)))
	mDetectMalicious.Add(malicious)
	return out, nil
}

// classifyWindows runs the model over pre-built windows and fills the
// confusion matrix.
func (c *Classifier) classifyWindows(wins []window, actualBenign bool, conf *metrics.Confusion) {
	var buf []float64
	for _, w := range wins {
		buf = c.scaler.ApplyInto(buf[:0], w.vec)
		pred := c.model.Decision(buf) >= 0
		conf.Add(actualBenign, pred)
	}
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
