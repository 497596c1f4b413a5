package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/metrics"
	"repro/internal/preprocess"
	"repro/internal/svm"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// oneClassNu is the ν parameter of the one-class baseline: allow ~5 % of
// benign training windows to fall outside the learned region.
const oneClassNu = 0.05

// EvaluateOneClass runs the anomaly-detection baseline from the paper's
// related work (one-class SVM à la Heller et al.): the model sees *only*
// the benign log — no mixed data, hence no label-noise problem but also
// no malicious signal — and is tested on the same held-out benign and
// pure-malicious windows as the other models. The comparison isolates
// what the mixed log (suitably de-noised) buys LEAPS.
func EvaluateOneClass(ctx context.Context, benign, malicious *trace.Log, config Config) (metrics.Summary, error) {
	config = config.withDefaults()
	if err := config.Validate(); err != nil {
		return metrics.Summary{}, err
	}
	if benign == nil || malicious == nil {
		return metrics.Summary{}, errors.New("core: nil log")
	}
	ctx, sp := telemetry.StartSpan(ctx, "oneclass")
	defer sp.End()
	parts, err := partitionLogs(ctx, resolveParallel(config.Parallel), []string{"benign", "malicious"}, benign, malicious)
	if err != nil {
		return metrics.Summary{}, err
	}
	bp, mp := parts[0], parts[1]
	// The encoder sees only benign events: a deployment without any
	// infected training material.
	enc, err := preprocess.FitContext(ctx, parts[:1], preprocess.Config{})
	if err != nil {
		return metrics.Summary{}, err
	}
	benignWins, err := coalesce(enc, bp, config.Window)
	if err != nil {
		return metrics.Summary{}, err
	}
	malWins, err := coalesce(enc, mp, config.Window)
	if err != nil {
		return metrics.Summary{}, err
	}

	rng := rand.New(rand.NewSource(config.Seed))
	train, test := splitBenign(rng, benignWins)
	trainSample, err := sampleWindows(rng, train, config.SampleFraction)
	if err != nil {
		return metrics.Summary{}, fmt.Errorf("sampling benign training windows: %w", err)
	}
	testBenign, err := sampleWindows(rng, test, config.SampleFraction)
	if err != nil {
		return metrics.Summary{}, fmt.Errorf("sampling benign test windows: %w", err)
	}
	testMal, err := sampleWindows(rng, malWins, config.SampleFraction)
	if err != nil {
		return metrics.Summary{}, fmt.Errorf("sampling malicious test windows: %w", err)
	}
	if len(trainSample) < 2 {
		return metrics.Summary{}, errors.New("core: too few benign windows for one-class training")
	}

	raw := make([][]float64, len(trainSample))
	for i, w := range trainSample {
		raw[i] = w.vec
	}
	scaler, err := svm.FitScaler(raw)
	if err != nil {
		return metrics.Summary{}, err
	}
	scaled := make([][]float64, len(raw))
	for i, v := range raw {
		scaled[i] = scaler.ApplyInto(make([]float64, 0, len(v)), v)
	}
	_, spT := telemetry.StartSpan(ctx, "smo")
	model, err := svm.TrainOneClass(scaled, svm.OneClassParams{
		Nu:     oneClassNu,
		Kernel: svm.RBFKernel{Sigma2: medianSquaredDistance(scaled, rng)},
	})
	spT.End()
	if err != nil {
		return metrics.Summary{}, err
	}

	var conf metrics.Confusion
	var buf []float64
	for _, w := range testBenign {
		buf = scaler.ApplyInto(buf[:0], w.vec)
		conf.Add(true, model.PredictInlier(buf))
	}
	for _, w := range testMal {
		buf = scaler.ApplyInto(buf[:0], w.vec)
		conf.Add(false, model.PredictInlier(buf))
	}
	return conf.Summary(), nil
}

// medianSquaredDistance estimates the RBF radius by the median heuristic:
// the median of pairwise squared distances over a sample of the training
// vectors. Parameter-free and standard for one-class models, which have no
// labels to cross-validate against.
func medianSquaredDistance(x [][]float64, rng *rand.Rand) float64 {
	if len(x) < 2 {
		return 1
	}
	const pairs = 512
	d2s := make([]float64, 0, pairs)
	for p := 0; p < pairs; p++ {
		a, b := x[rng.Intn(len(x))], x[rng.Intn(len(x))]
		var d2 float64
		for d := range a {
			diff := a[d] - b[d]
			d2 += diff * diff
		}
		if d2 > 0 {
			d2s = append(d2s, d2)
		}
	}
	if len(d2s) == 0 {
		return 1
	}
	sort.Float64s(d2s)
	return d2s[len(d2s)/2]
}
