package svm

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// lowerFullMatrixLimit switches newGram to lazy rows above limit samples
// for the rest of the test.
func lowerFullMatrixLimit(t *testing.T, limit int) {
	t.Helper()
	old := fullMatrixLimit
	fullMatrixLimit = limit
	t.Cleanup(func() { fullMatrixLimit = old })
}

// sameBits reports whether two float slices are bitwise equal, signed
// zeros and NaN payloads included.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// randomProblem draws n samples in [0,1]^dim whose label follows the
// first coordinate with some noise, at least one of them negative. With
// weighted set, about a fifth of the weights are zero.
func randomProblem(rng *rand.Rand, n, dim int, weighted bool) Problem {
	var p Problem
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = rng.Float64()
		}
		y := 1.0
		if x[0]+0.3*rng.NormFloat64() < 0.5 {
			y = -1
		}
		p.X, p.Y = append(p.X, x), append(p.Y, y)
		if weighted {
			w := rng.Float64()
			if rng.Intn(5) == 0 {
				w = 0
			}
			p.Weight = append(p.Weight, w)
		}
	}
	p.Y[rng.Intn(n)] = -1
	if p.Validate() != nil { // one class
		p.Y[0] = 1
		p.Y[n-1] = -1
	}
	return p
}

// refSolver is the SMO solver as it stood before the kernel matrix was
// shared: Q = yyᵀ∘K built from Kernel.Compute up front, and every
// iteration a selection pass over the samples followed by a separate
// gradient pass.
type refSolver struct {
	q           [][]float64
	y, c        []float64
	params      Params
	alpha, grad []float64
	iters       int
	rho         float64
}

func newRefSolver(x [][]float64, y, c []float64, params Params) *refSolver {
	n := len(x)
	r := &refSolver{y: y, c: c, params: params, q: make([][]float64, n),
		alpha: make([]float64, n), grad: make([]float64, n)}
	for i := range r.q {
		r.q[i] = make([]float64, n)
		for j := range r.q[i] {
			r.q[i][j] = y[i] * y[j] * params.Kernel.Compute(x[i], x[j])
		}
		r.grad[i] = -1
	}
	return r
}

func (r *refSolver) inUp(t int) bool {
	return (r.y[t] > 0 && r.alpha[t] < r.c[t]) || (r.y[t] < 0 && r.alpha[t] > 0)
}

func (r *refSolver) inLow(t int) bool {
	return (r.y[t] < 0 && r.alpha[t] < r.c[t]) || (r.y[t] > 0 && r.alpha[t] > 0)
}

func (r *refSolver) selectWorkingSet() (i, j int, ok bool) {
	gmax, gmin := math.Inf(-1), math.Inf(1)
	i, j = -1, -1
	for t := range r.alpha {
		yg := -r.y[t] * r.grad[t]
		if r.inUp(t) && yg > gmax {
			gmax, i = yg, t
		}
		if r.inLow(t) && yg < gmin {
			gmin, j = yg, t
		}
	}
	if i < 0 || j < 0 || gmax-gmin < smoTol {
		return -1, -1, false
	}
	return i, j, true
}

func (r *refSolver) solve() {
	for r.iters = 0; r.iters < maxIter(len(r.alpha)); r.iters++ {
		i, j, ok := r.selectWorkingSet()
		if !ok {
			break
		}
		r.update(i, j)
	}
	r.rho = r.computeBias()
}

func (r *refSolver) update(i, j int) {
	qi, qj := r.q[i], r.q[j]
	oldAi, oldAj := r.alpha[i], r.alpha[j]
	quad := qi[i] + qj[j] - 2*(r.y[i]*r.y[j]*qi[j])
	if quad < 1e-12 {
		quad = 1e-12
	}
	a, c, g := r.alpha, r.c, r.grad
	if r.y[i] != r.y[j] {
		delta := (-g[i] - g[j]) / quad
		diff := a[i] - a[j]
		a[i] += delta
		a[j] += delta
		if diff > 0 {
			if a[j] < 0 {
				a[j], a[i] = 0, diff
			}
		} else if a[i] < 0 {
			a[i], a[j] = 0, -diff
		}
		if diff > c[i]-c[j] {
			if a[i] > c[i] {
				a[i], a[j] = c[i], c[i]-diff
			}
		} else if a[j] > c[j] {
			a[j], a[i] = c[j], c[j]+diff
		}
	} else {
		delta := (g[i] - g[j]) / quad
		sum := a[i] + a[j]
		a[i] -= delta
		a[j] += delta
		if sum > c[i] {
			if a[i] > c[i] {
				a[i], a[j] = c[i], sum-c[i]
			}
		} else if a[j] < 0 {
			a[j], a[i] = 0, sum
		}
		if sum > c[j] {
			if a[j] > c[j] {
				a[j], a[i] = c[j], sum-c[j]
			}
		} else if a[i] < 0 {
			a[i], a[j] = 0, sum
		}
	}
	dAi, dAj := a[i]-oldAi, a[j]-oldAj
	if dAi == 0 && dAj == 0 {
		return
	}
	for t := range g {
		g[t] += qi[t]*dAi + qj[t]*dAj
	}
}

func (r *refSolver) computeBias() float64 {
	var sum float64
	var free int
	ub, lb := math.Inf(1), math.Inf(-1)
	for t := range r.alpha {
		if r.c[t] <= 1e-12 {
			continue
		}
		yg := -r.y[t] * r.grad[t]
		switch {
		case r.alpha[t] > 1e-12 && r.alpha[t] < r.c[t]-1e-12:
			sum += yg
			free++
		case (r.y[t] > 0 && r.alpha[t] <= 1e-12) || (r.y[t] < 0 && r.alpha[t] >= r.c[t]-1e-12):
			if yg > lb {
				lb = yg
			}
		default:
			if yg < ub {
				ub = yg
			}
		}
	}
	switch {
	case free > 0:
		return sum / float64(free)
	case math.IsInf(ub, 1) && math.IsInf(lb, -1):
		return 0
	case math.IsInf(ub, 1):
		return lb
	case math.IsInf(lb, -1):
		return ub
	}
	return (ub + lb) / 2
}

// TestSolverMatchesReference holds the solver — raw kernel rows read
// through a sample-index list, a label-signed gradient, membership
// offsets and the fused gradient-and-selection pass — to the reference
// solver bit for bit: α, gradient, iterations and bias, over
// weighted problems with zero weights, the one-class initial state and
// 2 to 200 samples.
func TestSolverMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	kernels := []Kernel{RBFKernel{Sigma2: 0.5}, RBFKernel{Sigma2: 4}, LinearKernel{}, PolyKernel{Degree: 2, Gamma: 1, Coef0: 1}}
	for trial, n := range []int{2, 3, 5, 9, 17, 40, 73, 120, 200} {
		for _, k := range kernels {
			for _, oneClass := range []bool{false, true} {
				// The solver reads a random subset of a larger sample
				// set, in random order, as a cross-validation fold does.
				all := randomProblem(rng, n+rng.Intn(n+1), 4, trial%2 == 0)
				idx := rng.Perm(len(all.X))[:n]
				x := make([][]float64, n)
				y := make([]float64, n)
				c := make([]float64, n)
				lambda := []float64{0.5, 2, 8}[rng.Intn(3)]
				for l, p := range idx {
					x[l], y[l], c[l] = all.X[p], all.Y[p], lambda
					if all.Weight != nil {
						c[l] = lambda * all.Weight[p]
					}
					if oneClass {
						y[l], c[l] = 1, 1/(0.3*float64(n))
					}
				}
				ref := newRefSolver(x, y, c, Params{Lambda: lambda, Kernel: k})
				got := newSolver(newGram(all.X, k), idx, y, c)
				if oneClass {
					budget := 1.0
					for i := 0; i < n && budget > 0; i++ {
						ref.alpha[i] = math.Min(c[i], budget)
						budget -= ref.alpha[i]
					}
					for t := range ref.grad {
						ref.grad[t] = 0
						for i, a := range ref.alpha {
							ref.grad[t] += ref.q[i][t] * a
						}
					}
					copy(got.alpha, ref.alpha)
					for t, g := range ref.grad {
						got.yg[t] = -y[t] * g
					}
				}
				ref.solve()
				got.solve()
				grad := make([]float64, n)
				for t, v := range got.yg {
					grad[t] = -y[t] * v
				}
				if got.iters != ref.iters || !sameBits(got.alpha, ref.alpha) || !sameBits(grad, ref.grad) ||
					math.Float64bits(got.rho) != math.Float64bits(ref.rho) {
					t.Fatalf("n=%d %v one-class=%v: solver (iters %d, bias %v) differs from the reference (iters %d, bias %v)",
						n, k, oneClass, got.iters, got.rho, ref.iters, ref.rho)
				}
			}
		}
	}
}

// TestSharedCrossValidateMatchesUncached pins the fold solvers that read
// one shared kernel matrix (GridSearch over a single point) to the
// self-contained path: identical accuracy, bit for bit, for every kernel
// of the default grid.
func TestSharedCrossValidateMatchesUncached(t *testing.T) {
	prob := noisyProblem(rand.New(rand.NewSource(17)), 40)
	for _, s2 := range DefaultGrid().Sigma2s {
		params := Params{Lambda: 2, Kernel: RBFKernel{Sigma2: s2}}
		want, err := CrossValidate(prob, params, 5, 7)
		if err != nil {
			t.Fatal(err)
		}
		grid := GridSpec{Lambdas: []float64{2}, Sigma2s: []float64{s2}, Folds: 5, Seed: 7, Parallel: 1}
		best, got, err := GridSearch(prob, grid)
		if err != nil {
			t.Fatal(err)
		}
		if best != params || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("σ²=%g: shared (%+v, %v) != uncached %v", s2, best, got, want)
		}
	}
}

// TestGridSearchMatchesUncachedSweep holds every grid point's accuracy
// to CrossValidate's — the plain path that trains each fold with Train
// and scores it with Model.Decision — bit for bit, including the error
// cases, and the selected point to a brute-force reduction in grid order.
// The problems are random, weighted or not with zero weights, with 2 to
// 10 folds (often more folds than samples) and folds whose training set
// lost a class.
func TestGridSearchMatchesUncachedSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type trial struct {
		prob  Problem
		folds int
		seed  int64
	}
	trials := []trial{
		{noisyProblem(rand.New(rand.NewSource(17)), 40), 5, 7},
		{noisyProblem(rand.New(rand.NewSource(23)), 35), 5, 99},
		{Problem{X: [][]float64{{0}, {1}}, Y: []float64{1, -1}}, 2, 3},                                     // no testable fold
		{Problem{X: [][]float64{{0}, {1}, {2}}, Y: []float64{1, -1, 1}, Weight: []float64{0, 0, 0}}, 3, 3}, // zero held-out weight
	}
	for i := 0; i < 24; i++ {
		trials = append(trials, trial{randomProblem(rng, 3+rng.Intn(30), 3, i%2 == 1), 2 + rng.Intn(9), rng.Int63()})
	}
	var foldsOverN, skippedFold int
	for ti, tr := range trials {
		grid := DefaultGrid()
		grid.Folds, grid.Seed, grid.Parallel = tr.folds, tr.seed, 1+ti%3
		if tr.folds > len(tr.prob.X) {
			foldsOverN++
		}
		if fs, err := newFolds(tr.prob, tr.folds, tr.seed); err == nil && slices.Contains(fs.skip, true) {
			skippedFold++
		}
		var wantBest Params
		var wantErr error
		wantAcc := -1.0
		for _, l := range grid.Lambdas {
			for _, s2 := range grid.Sigma2s {
				p := Params{Lambda: l, Kernel: RBFKernel{Sigma2: s2}}
				acc, err := CrossValidate(tr.prob, p, grid.Folds, grid.Seed)
				one := grid
				one.Lambdas, one.Sigma2s = []float64{l}, []float64{s2}
				got, gotAcc, gotErr := GridSearch(tr.prob, one)
				if (err == nil) != (gotErr == nil) || (err != nil && err.Error() != gotErr.Error()) {
					t.Fatalf("trial %d (λ=%g, σ²=%g): GridSearch error %v, CrossValidate error %v", ti, l, s2, gotErr, err)
				}
				if err != nil {
					wantErr = err
					continue
				}
				if got != p || math.Float64bits(gotAcc) != math.Float64bits(acc) {
					t.Fatalf("trial %d (λ=%g, σ²=%g): GridSearch (%+v, %v), CrossValidate %v", ti, l, s2, got, gotAcc, acc)
				}
				if acc > wantAcc {
					wantBest, wantAcc = p, acc
				}
			}
		}
		best, acc, err := GridSearch(tr.prob, grid)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: GridSearch error %v, sweep error %v", ti, err, wantErr)
		}
		if err == nil && (best != wantBest || acc != wantAcc) {
			t.Errorf("trial %d: GridSearch selected (%+v, %v), the sweep selected (%+v, %v)", ti, best, acc, wantBest, wantAcc)
		}
	}
	if foldsOverN == 0 || skippedFold == 0 {
		t.Fatalf("folds > n in %d trials, a skipped single-class fold in %d; want both covered", foldsOverN, skippedFold)
	}
}

// TestGramMatchesCompute: both fill modes hold Compute(xᵢ, xⱼ) bit for
// bit at every entry, for the three kernels.
func TestGramMatchesCompute(t *testing.T) {
	prob := randomProblem(rand.New(rand.NewSource(29)), 30, 5, false)
	for _, lazy := range []bool{false, true} {
		if lazy {
			lowerFullMatrixLimit(t, 10)
		}
		for _, k := range []Kernel{LinearKernel{}, RBFKernel{Sigma2: 0.7}, PolyKernel{Degree: 3, Gamma: 0.5, Coef0: 1}} {
			g := newGram(prob.X, k)
			if (g.rows != nil) != lazy {
				t.Fatalf("lazy=%v: gram built in the other mode", lazy)
			}
			for i := range prob.X {
				for j := range prob.X {
					if got, want := g.row(i)[j], k.Compute(prob.X[i], prob.X[j]); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("lazy=%v %v: K[%d][%d] = %v, Compute gives %v", lazy, k, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestGramConcurrent hammers one lazily filled gram from many goroutines
// (run under -race by make determinism) and checks every caller sees the
// canonical row: one backing array, Compute's values.
func TestGramConcurrent(t *testing.T) {
	lowerFullMatrixLimit(t, 0)
	prob := noisyProblem(rand.New(rand.NewSource(31)), 32)
	kernel := RBFKernel{Sigma2: 4}
	g := newGram(prob.X, kernel)
	n := len(prob.X)

	const workers = 8
	rows := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = make([][]float64, n)
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < n; i++ {
					rows[w][(i+w)%n] = g.row((i + w) % n)
				}
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		canon := rows[0][i]
		for w := 1; w < workers; w++ {
			if &rows[w][i][0] != &canon[0] {
				t.Fatalf("row %d: worker %d got a non-canonical backing array", i, w)
			}
		}
		for j := range canon {
			if want := kernel.Compute(prob.X[i], prob.X[j]); canon[j] != want {
				t.Fatalf("row %d[%d] = %v, want %v", i, j, canon[j], want)
			}
		}
	}
}

// fitResult is everything Fit returns, for bitwise comparison.
type fitResult struct {
	params Params
	model  *Model
	dec    []float64
}

func mustFit(t *testing.T, prob Problem, fixed *Params, grid GridSpec) fitResult {
	t.Helper()
	p, m, dec, err := Fit(context.Background(), prob, fixed, grid)
	if err != nil {
		t.Fatal(err)
	}
	return fitResult{p, m, dec}
}

// TestLazyGramMatchesEager: with the eager limit lowered below the
// sample count, GridSearch, Train and Fit give the eager mode's bits, at
// one worker and at several.
func TestLazyGramMatchesEager(t *testing.T) {
	prob := randomProblem(rand.New(rand.NewSource(37)), 48, 6, true)
	grid := DefaultGrid()
	grid.Seed = 5
	fixed := &Params{Lambda: 2, Kernel: RBFKernel{Sigma2: 1}}
	run := func(parallel int) (Params, float64, *Model, fitResult, fitResult) {
		grid.Parallel = parallel
		best, acc, err := GridSearch(prob, grid)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Train(prob, *fixed)
		if err != nil {
			t.Fatal(err)
		}
		return best, acc, m, mustFit(t, prob, nil, grid), mustFit(t, prob, fixed, grid)
	}
	wantBest, wantAcc, wantModel, wantGrid, wantFixed := run(1)
	lowerFullMatrixLimit(t, 20)
	for _, parallel := range []int{1, 4} {
		best, acc, m, fg, ff := run(parallel)
		if best != wantBest || acc != wantAcc || !reflect.DeepEqual(m, wantModel) ||
			!reflect.DeepEqual(fg, wantGrid) || !reflect.DeepEqual(ff, wantFixed) {
			t.Errorf("Parallel=%d: lazy rows changed the result", parallel)
		}
	}
}

// TestFitDecisionsMatchDecision: the training decisions Fit returns for
// Platt calibration are Model.Decision's values bit for bit, and Fit's
// model is Train's (fixed parameters) or the GridSearch winner's.
func TestFitDecisionsMatchDecision(t *testing.T) {
	prob := randomProblem(rand.New(rand.NewSource(41)), 60, 5, true)
	grid := DefaultGrid()
	grid.Seed, grid.Parallel = 3, 1
	best, _, err := GridSearch(prob, grid)
	if err != nil {
		t.Fatal(err)
	}
	cases := []*Params{nil, {Lambda: 4, Kernel: LinearKernel{}}, {Lambda: 1, Kernel: PolyKernel{Degree: 2, Gamma: 1, Coef0: 1}}, {Lambda: 8}}
	for _, fixed := range cases {
		got := mustFit(t, prob, fixed, grid)
		want := best
		if fixed != nil {
			want = *fixed
		}
		if got.params != want {
			t.Fatalf("Fit returned params %+v, want %+v", got.params, want)
		}
		ref, err := Train(prob, want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.model, ref) {
			t.Errorf("%+v: Fit's model differs from Train's", want)
		}
		for i, x := range prob.X {
			if d := got.model.Decision(x); math.Float64bits(got.dec[i]) != math.Float64bits(d) {
				t.Fatalf("%+v: training decision %d = %v, Model.Decision gives %v", want, i, got.dec[i], d)
			}
		}
	}
}

// TestGridSearchAllocs bounds model selection's allocations on a fixed
// 90-sample problem: the default 16-point grid over 5 folds, serially.
func TestGridSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const gridSearchAllocBudget = 800 // allocs per call; 653 measured
	prob := noisyProblem(rand.New(rand.NewSource(5)), 45)
	grid := DefaultGrid()
	grid.Parallel = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := GridSearch(prob, grid); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > gridSearchAllocBudget {
		t.Errorf("GridSearch allocated %.0f times per call, budget %d", allocs, gridSearchAllocBudget)
	}
}
