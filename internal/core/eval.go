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
	"repro/internal/trace"
)

// EvalResult holds one evaluation run of the three models on one dataset:
// the paper's Figure 6/7 bar groups (and Table I's WSVM row).
type EvalResult struct {
	// CGraph, SVM and WSVM are the five measurements per model.
	CGraph metrics.Summary
	SVM    metrics.Summary
	WSVM   metrics.Summary
	// HMM holds the §VI-B extension model's measurements; populated only
	// by EvaluateWithHMM, as signalled by HMMIncluded.
	HMM         metrics.Summary
	HMMIncluded bool
	// WSVMAUC and SVMAUC are the areas under the ROC curves of the two
	// margin classifiers over the test windows (threshold sweeps on the
	// decision values). NaN when undefined.
	WSVMAUC, SVMAUC float64
	// CGraphUndecidedFrac is the fraction of test windows the call-graph
	// model could not decide (counted as misclassified above).
	CGraphUndecidedFrac float64
	// TrainBenign, TrainMixed, TestBenign, TestMalicious are the actual
	// sampled set sizes.
	TrainBenign, TrainMixed, TestBenign, TestMalicious int
	// MeanMixedWeight is the average WSVM cost over mixed training
	// windows (diagnostic: how much the CFG pruned).
	MeanMixedWeight float64
}

// evalData bundles the seed-independent state shared by every evaluation
// run on one dataset triple: the training artifacts plus the partitioned
// and coalesced pure-malicious log.
type evalData struct {
	art     *Artifacts
	malPart *partition.Log
	malWins []window
}

// buildEvalData computes the per-dataset tier once. Both the training
// artifacts and the malicious windows depend only on the logs and the
// configuration, never on the run seed.
func buildEvalData(ctx context.Context, benign, mixed, malicious *trace.Log, config Config) (*evalData, error) {
	if malicious == nil {
		return nil, errors.New("core: nil malicious log")
	}
	art, err := BuildArtifacts(ctx, benign, mixed, config)
	if err != nil {
		return nil, err
	}
	malParts, err := partitionLogs(ctx, 1, []string{"malicious"}, malicious)
	if err != nil {
		return nil, err
	}
	malWins, err := coalesce(art.Encoder, malParts[0], art.cfg.Window)
	if err != nil {
		return nil, err
	}
	return &evalData{art: art, malPart: malParts[0], malWins: malWins}, nil
}

// run executes one seed's selection, training and testing on the shared
// evaluation data. It only reads the shared state, so seed-varied runs
// may execute concurrently.
func (ed *evalData) run(ctx context.Context, seed int64, includeHMM bool) (*EvalResult, error) {
	cfg := ed.art.cfg
	sel := ed.art.Select(seed)

	// Test-set sampling (the same 20% protocol as training).
	rng := rand.New(rand.NewSource(seed + 2))
	testBenign, err := sampleWindows(rng, sel.benignTest, cfg.SampleFraction)
	if err != nil {
		return nil, fmt.Errorf("sampling benign test windows: %w", err)
	}
	testMal, err := sampleWindows(rng, ed.malWins, cfg.SampleFraction)
	if err != nil {
		return nil, fmt.Errorf("sampling malicious test windows: %w", err)
	}

	res := &EvalResult{
		TestBenign:    len(testBenign),
		TestMalicious: len(testMal),
	}
	for _, w := range sel.mixedWeight {
		res.MeanMixedWeight += w
	}
	if len(sel.mixedWeight) > 0 {
		res.MeanMixedWeight /= float64(len(sel.mixedWeight))
	}

	// WSVM (the LEAPS model).
	wsvm, err := sel.train(ctx, true)
	if err != nil {
		return nil, fmt.Errorf("core: training WSVM: %w", err)
	}
	// Plain SVM comparison.
	plain, err := sel.train(ctx, false)
	if err != nil {
		return nil, fmt.Errorf("core: training SVM: %w", err)
	}
	res.TrainBenign, res.TrainMixed = wsvm.TrainSizes()

	wsvmConf, wsvmAUC := wsvm.test(testBenign, testMal)
	svmConf, svmAUC := plain.test(testBenign, testMal)
	res.WSVM, res.WSVMAUC = wsvmConf.Summary(), wsvmAUC
	res.SVM, res.SVMAUC = svmConf.Summary(), svmAUC

	// Call-graph baseline: BCG from the benign training windows' events,
	// MCG from the whole mixed log.
	ranges := make([][2]int, len(sel.benignTrain))
	for i, w := range sel.benignTrain {
		ranges[i] = [2]int{w.start, min(w.start+cfg.Window, ed.art.BenignPart.Len())}
	}
	cg, err := callgraph.Train(ed.art.BenignPart.Gather(ranges), ed.art.MixedPart)
	if err != nil {
		return nil, fmt.Errorf("core: training call-graph model: %w", err)
	}
	var cgConf metrics.Confusion
	var undecided int
	cgraphClassify(cg, ed.art.BenignPart, testBenign, cfg.Window, true, &cgConf, &undecided)
	cgraphClassify(cg, ed.malPart, testMal, cfg.Window, false, &cgConf, &undecided)
	res.CGraph = cgConf.Summary()
	if total := len(testBenign) + len(testMal); total > 0 {
		res.CGraphUndecidedFrac = float64(undecided) / float64(total)
	}

	if includeHMM {
		hc, err := trainHMM(sel)
		if err != nil {
			return nil, err
		}
		var hmmConf metrics.Confusion
		if err := hc.classifyWindows(testBenign, true, &hmmConf); err != nil {
			return nil, err
		}
		if err := hc.classifyWindows(testMal, false, &hmmConf); err != nil {
			return nil, err
		}
		res.HMM = hmmConf.Summary()
		res.HMMIncluded = true
	}
	return res, nil
}

// Evaluate runs the full §V protocol once: build training data from the
// benign and mixed logs, train CGraph, SVM and WSVM, and test all three on
// held-out benign windows (positives) and pure-malicious windows
// (negatives).
func Evaluate(ctx context.Context, benign, mixed, malicious *trace.Log, config Config) (*EvalResult, error) {
	return evaluate(ctx, benign, mixed, malicious, config, false)
}

// EvaluateWithHMM is Evaluate plus the §VI-B HMM extension model as a
// fourth classifier.
func EvaluateWithHMM(ctx context.Context, benign, mixed, malicious *trace.Log, config Config) (*EvalResult, error) {
	return evaluate(ctx, benign, mixed, malicious, config, true)
}

func evaluate(ctx context.Context, benign, mixed, malicious *trace.Log, config Config, includeHMM bool) (*EvalResult, error) {
	ed, err := buildEvalData(ctx, benign, mixed, malicious, config)
	if err != nil {
		return nil, err
	}
	return ed.run(ctx, ed.art.cfg.Seed, includeHMM)
}

// EvaluateRuns repeats the evaluation over several data-selection seeds
// and averages the measurements, as the paper averages all results over
// 10 runs. The seed-independent artifacts (partitioning, encoder fit,
// CFG inference, weight assessment, window coalescing) are built exactly
// once and shared; only the cheap per-seed tail (split, sampling, weight
// shuffle, training) repeats, on up to Config.Parallel concurrent
// workers. Results are merged in run order and are identical for any
// Parallel value.
func EvaluateRuns(ctx context.Context, benign, mixed, malicious *trace.Log, config Config, runs int) (*EvalResult, error) {
	if runs < 1 {
		return nil, fmt.Errorf("core: runs %d must be positive", runs)
	}
	ed, err := buildEvalData(ctx, benign, mixed, malicious, config)
	if err != nil {
		return nil, err
	}

	results := make([]*EvalResult, runs)
	errs := make([]error, runs)
	workers := resolveParallel(ed.art.cfg.Parallel)
	if workers > runs {
		workers = runs
	}
	if workers <= 1 {
		for r := 0; r < runs; r++ {
			results[r], errs[r] = ed.run(ctx, config.Seed+int64(r)*7919, false)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for r := 0; r < runs; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				results[r], errs[r] = ed.run(ctx, config.Seed+int64(r)*7919, false)
			}(r)
		}
		wg.Wait()
	}

	var cgs, svms, wsvms []metrics.Summary
	var wsvmAUCs, svmAUCs []float64
	agg := &EvalResult{}
	for r, res := range results {
		if errs[r] != nil {
			return nil, fmt.Errorf("core: run %d: %w", r, errs[r])
		}
		cgs = append(cgs, res.CGraph)
		svms = append(svms, res.SVM)
		wsvms = append(wsvms, res.WSVM)
		wsvmAUCs = append(wsvmAUCs, res.WSVMAUC)
		svmAUCs = append(svmAUCs, res.SVMAUC)
		agg.CGraphUndecidedFrac += res.CGraphUndecidedFrac
		agg.MeanMixedWeight += res.MeanMixedWeight
		agg.TrainBenign, agg.TrainMixed = res.TrainBenign, res.TrainMixed
		agg.TestBenign, agg.TestMalicious = res.TestBenign, res.TestMalicious
	}
	agg.CGraph = metrics.Mean(cgs)
	agg.SVM = metrics.Mean(svms)
	agg.WSVM = metrics.Mean(wsvms)
	agg.WSVMAUC = meanSkipNaN(wsvmAUCs)
	agg.SVMAUC = meanSkipNaN(svmAUCs)
	agg.CGraphUndecidedFrac /= float64(runs)
	agg.MeanMixedWeight /= float64(runs)
	return agg, nil
}

// meanSkipNaN averages the defined entries; NaN when none are.
func meanSkipNaN(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
