package svm

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/telemetry"
)

// CrossValidate estimates classification quality of the given parameters
// by k-fold cross-validation on the problem, shuffling with the seed.
//
// The score is the balanced, weight-aware accuracy: each held-out sample
// contributes its confidence weight cᵢ (so samples the CFG guidance marked
// as probably mislabeled barely influence model selection), and the two
// classes' weighted accuracies are averaged (so an imbalanced training set
// cannot make a degenerate single-class model look good). The per-sample
// weights also follow their samples into the training folds.
//
// It is the plain per-fold path (Train, then Model.Decision); GridSearch
// reaches the same scores from shared kernel matrices.
func CrossValidate(prob Problem, params Params, folds int, seed int64) (float64, error) {
	if err := prob.Validate(); err != nil {
		return 0, err
	}
	fs, err := newFolds(prob, folds, seed)
	if err != nil {
		return 0, err
	}
	dec := make([]float64, len(prob.X))
	for f, train := range fs.train {
		if fs.skip[f] {
			continue
		}
		model, err := Train(train, params)
		if err != nil {
			return 0, fmt.Errorf("svm: fold %d: %w", f, err)
		}
		for _, p := range fs.test[f] {
			dec[p] = model.Decision(prob.X[p])
		}
	}
	return fs.accuracy(prob, dec)
}

// folds is the k-fold split of one problem: fold f holds out the samples
// at the positions ≡ f (mod k) of a seeded permutation and trains on the
// others, both in permutation order.
type folds struct {
	train     []Problem
	idx, test [][]int // each fold's training and held-out samples
	skip      []bool  // the fold's training set lost a class: not scored
}

// newFolds splits the validated problem into k folds, at most one per
// sample. It fails when no fold can be scored, which no parameters change.
func newFolds(prob Problem, k int, seed int64) (*folds, error) {
	if k < 2 {
		return nil, fmt.Errorf("svm: folds %d must be at least 2", k)
	}
	k = min(k, len(prob.X))
	perm := rand.New(rand.NewSource(seed)).Perm(len(prob.X))
	fs := &folds{train: make([]Problem, k), idx: make([][]int, k), test: make([][]int, k), skip: make([]bool, k)}
	for f := range fs.train {
		tr := &fs.train[f]
		for pos, p := range perm {
			if pos%k == f {
				fs.test[f] = append(fs.test[f], p)
				continue
			}
			fs.idx[f] = append(fs.idx[f], p)
			tr.X, tr.Y = append(tr.X, prob.X[p]), append(tr.Y, prob.Y[p])
			if prob.Weight != nil {
				tr.Weight = append(tr.Weight, prob.Weight[p])
			}
		}
		// A subset of a valid problem fails validation only by losing a
		// class.
		fs.skip[f] = tr.Validate() != nil
	}
	if _, err := fs.accuracy(prob, nil); err != nil {
		return nil, err
	}
	return fs, nil
}

// accuracy scores the held-out decision values dec, indexed by sample,
// summing the scored folds in fold order and then test order. A sample
// hits when its decision value has its label's sign (Model.Predict's
// rule); a nil dec scores no hits.
func (fs *folds) accuracy(prob Problem, dec []float64) (float64, error) {
	var posCorrect, posTotal, negCorrect, negTotal float64
	var tested int
	for f, test := range fs.test {
		if fs.skip[f] {
			continue
		}
		for _, p := range test {
			w := 1.0
			if prob.Weight != nil {
				w = prob.Weight[p]
			}
			hit := 0.0
			if dec != nil && (dec[p] < 0) == (prob.Y[p] < 0) {
				hit = w
			}
			if prob.Y[p] > 0 {
				posCorrect += hit
				posTotal += w
			} else {
				negCorrect += hit
				negTotal += w
			}
			tested++
		}
	}
	if tested == 0 {
		return 0, errors.New("svm: no testable folds")
	}
	switch {
	case posTotal == 0 && negTotal == 0:
		return 0, errors.New("svm: all held-out weight is zero")
	case posTotal == 0:
		return negCorrect / negTotal, nil
	case negTotal == 0:
		return posCorrect / posTotal, nil
	}
	return (posCorrect/posTotal + negCorrect/negTotal) / 2, nil
}

// GridSpec is the search space for model selection. The paper tunes λ and
// σ² by 10-fold cross-validation on the training set.
type GridSpec struct {
	Lambdas []float64
	Sigma2s []float64
	Folds   int
	Seed    int64
	// Parallel bounds how many cross-validation fold solves run
	// concurrently: 1 (or negative) is fully sequential, 0 uses every
	// processor. Every grid point uses Seed's fold shuffle and results
	// reduce in grid order, so the selected parameters are identical for
	// any Parallel value.
	Parallel int
}

// DefaultGrid returns the grid used by the evaluation harness: a coarse
// logarithmic sweep, 5 folds.
func DefaultGrid() GridSpec {
	return GridSpec{
		Lambdas: []float64{0.5, 2, 8, 32},
		Sigma2s: []float64{0.25, 1, 4, 16},
		Folds:   5,
	}
}

// GridSearch selects the (λ, σ²) pair with the best cross-validated
// accuracy on the problem, breaking ties toward the earlier grid entry,
// and returns it with its accuracy: what CrossValidate gives it, exactly.
// Every entry passes Params.Check first. The folds are built once and the
// σ² values swept in turn over one kernel matrix each, which every fold
// and λ reads and held-out scoring reads through the support vectors'
// rows; only it and the best point's matrix are alive at once.
func GridSearch(prob Problem, grid GridSpec) (Params, float64, error) {
	best, acc, _, err := gridSearch(prob, grid)
	return best, acc, err
}

// gridSearch is GridSearch also returning the winner's kernel matrix.
func gridSearch(prob Problem, grid GridSpec) (Params, float64, *gram, error) {
	if len(grid.Lambdas) == 0 || len(grid.Sigma2s) == 0 {
		return Params{}, 0, nil, errors.New("svm: empty grid")
	}
	for _, l := range grid.Lambdas {
		for _, s2 := range grid.Sigma2s {
			if err := (Params{Lambda: l, Kernel: RBFKernel{Sigma2: s2}}).Check(); err != nil {
				return Params{}, 0, nil, fmt.Errorf("svm: grid point (λ=%g, σ²=%g): %w", l, s2, err)
			}
		}
	}
	if err := prob.Validate(); err != nil {
		return Params{}, 0, nil, err
	}
	k := grid.Folds
	if k == 0 {
		k = 10
	}
	fs, err := newFolds(prob, k, grid.Seed)
	if err != nil {
		return Params{}, 0, nil, err
	}
	workers := grid.Parallel
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// dec[l] holds λ_l's held-out decision values at the current σ².
	dec := make([][]float64, len(grid.Lambdas))
	for l := range dec {
		dec[l] = make([]float64, len(prob.X))
	}
	var best Params
	var bestGram *gram
	bestAcc, bestAt := -1.0, 0
	for s, s2 := range grid.Sigma2s {
		g := newGram(prob.X, RBFKernel{Sigma2: s2})
		nf := len(fs.train)
		parallelFor(len(grid.Lambdas)*nf, workers, func(t int) {
			if l, f := t/nf, t%nf; !fs.skip[f] {
				p := Params{Lambda: grid.Lambdas[l], Kernel: g.kernel}
				solve(fs.train[f], p, g, fs.idx[f]).decisions(fs.test[f], dec[l])
			}
		})
		for l, lambda := range grid.Lambdas {
			// Grid order is λ-major; ties go to the earlier point.
			acc, _ := fs.accuracy(prob, dec[l])
			if at := l*len(grid.Sigma2s) + s; acc > bestAcc || (acc == bestAcc && at < bestAt) {
				best, bestAcc, bestAt, bestGram = Params{Lambda: lambda, Kernel: g.kernel}, acc, at, g
			}
		}
	}
	return best, bestAcc, bestGram, nil
}

// parallelFor runs fn(0…n−1) on up to workers goroutines, or in order
// when workers ≤ 1.
func parallelFor(n, workers int, fn func(int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Fit trains with params, or when nil with GridSearch's winner over grid
// on the winner's kernel matrix. It returns the parameters, the model and
// its decision value on every training sample — Model.Decision's values,
// read from that matrix. The "gridsearch" and "smo" spans nest under ctx.
func Fit(ctx context.Context, prob Problem, params *Params, grid GridSpec) (Params, *Model, []float64, error) {
	var k *gram
	if params == nil {
		_, sp := telemetry.StartSpan(ctx, "gridsearch")
		best, _, g, err := gridSearch(prob, grid)
		sp.End()
		if err != nil {
			return Params{}, nil, nil, err
		}
		params, k = &best, g
	}
	_, sp := telemetry.StartSpan(ctx, "smo")
	s, err := solveAll(prob, *params, k)
	sp.End()
	if err != nil {
		return Params{}, nil, nil, err
	}
	dec := make([]float64, len(prob.X))
	s.decisions(s.idx, dec)
	return *params, s.model(prob.X), dec, nil
}
