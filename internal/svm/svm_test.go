package svm

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestProblemValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Problem)
		wantErr bool
	}{
		{"valid", func(p *Problem) {}, false},
		{"empty", func(p *Problem) { p.X = nil; p.Y = nil }, true},
		{"label count", func(p *Problem) { p.Y = p.Y[:1] }, true},
		{"weight count", func(p *Problem) { p.Weight = []float64{1} }, true},
		{"ragged dims", func(p *Problem) { p.X[1] = []float64{1} }, true},
		{"bad label", func(p *Problem) { p.Y[0] = 2 }, true},
		{"one class", func(p *Problem) { p.Y[1] = 1 }, true},
		{"weight range", func(p *Problem) { p.Weight = []float64{1, 1.5} }, true},
		{"nan weight", func(p *Problem) { p.Weight = []float64{1, math.NaN()} }, true},
		{"valid weights", func(p *Problem) { p.Weight = []float64{1, 0.5} }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Problem{
				X: [][]float64{{0, 0}, {1, 1}},
				Y: []float64{1, -1},
			}
			tt.mutate(&p)
			if err := p.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTrainRejectsBadLambda(t *testing.T) {
	p := Problem{X: [][]float64{{0}, {1}}, Y: []float64{1, -1}}
	if _, err := Train(p, Params{Lambda: 0}); err == nil {
		t.Error("Lambda=0 accepted")
	}
	if _, err := Train(p, Params{Lambda: -1}); err == nil {
		t.Error("Lambda<0 accepted")
	}
}

// TestParamsCheck is the one parameter check's table, applied by Train,
// TrainOneClass (kernel only) and GridSearch, which checks every grid
// entry before it builds a kernel matrix.
func TestParamsCheck(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tests := []struct {
		params Params
		ok     bool
	}{
		{Params{Lambda: 8, Kernel: RBFKernel{Sigma2: 2}}, true},
		{Params{Lambda: 1}, true},
		{Params{Lambda: 1, Kernel: LinearKernel{}}, true},
		{Params{Lambda: 1, Kernel: PolyKernel{Degree: 1, Gamma: -2, Coef0: 0}}, true},
		{Params{Lambda: 0, Kernel: RBFKernel{Sigma2: 2}}, false},
		{Params{Lambda: -1, Kernel: RBFKernel{Sigma2: 2}}, false},
		{Params{Lambda: nan, Kernel: RBFKernel{Sigma2: 2}}, false},
		{Params{Lambda: inf, Kernel: RBFKernel{Sigma2: 2}}, false},
		{Params{Lambda: 8, Kernel: RBFKernel{Sigma2: 0}}, false},
		{Params{Lambda: 8, Kernel: RBFKernel{Sigma2: -1}}, false},
		{Params{Lambda: 8, Kernel: RBFKernel{Sigma2: nan}}, false},
		{Params{Lambda: 8, Kernel: RBFKernel{Sigma2: inf}}, false},
		{Params{Lambda: 8, Kernel: PolyKernel{Degree: 0, Gamma: 1, Coef0: 1}}, false},
		{Params{Lambda: 8, Kernel: PolyKernel{Degree: 2, Gamma: nan, Coef0: 1}}, false},
		{Params{Lambda: 8, Kernel: PolyKernel{Degree: 2, Gamma: 1, Coef0: -inf}}, false},
	}
	prob := separableProblem(rand.New(rand.NewSource(3)), 6)
	for _, tt := range tests {
		if err := tt.params.Check(); (err == nil) != tt.ok {
			t.Errorf("%+v: Check() = %v, want ok=%v", tt.params, err, tt.ok)
		}
		if _, err := Train(prob, tt.params); (err == nil) != tt.ok {
			t.Errorf("%+v: Train error %v, want ok=%v", tt.params, err, tt.ok)
		}
		if tt.params.Lambda == 8 {
			_, err := TrainOneClass(prob.X, OneClassParams{Nu: 0.5, Kernel: tt.params.Kernel})
			if (err == nil) != tt.ok {
				t.Errorf("%+v: TrainOneClass error %v, want ok=%v", tt.params, err, tt.ok)
			}
		}
		if rbf, isRBF := tt.params.Kernel.(RBFKernel); isRBF {
			evals := mKernelEvals.Value()
			grid := GridSpec{Lambdas: []float64{2, tt.params.Lambda}, Sigma2s: []float64{1, rbf.Sigma2}, Folds: 2}
			if _, _, err := GridSearch(prob, grid); (err == nil) != tt.ok {
				t.Errorf("%+v: GridSearch error %v, want ok=%v", tt.params, err, tt.ok)
			} else if !tt.ok && mKernelEvals.Value() != evals {
				t.Errorf("%+v: GridSearch evaluated the kernel before rejecting the grid", tt.params)
			}
		}
	}
}

// linearly separable clusters around (0,0) and (3,3).
func separableProblem(rng *rand.Rand, n int) Problem {
	var p Problem
	for i := 0; i < n; i++ {
		p.X = append(p.X, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		p.Y = append(p.Y, 1)
		p.X = append(p.X, []float64{3 + rng.NormFloat64()*0.3, 3 + rng.NormFloat64()*0.3})
		p.Y = append(p.Y, -1)
	}
	return p
}

func TestTrainSeparableLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := separableProblem(rng, 40)
	m, err := Train(p, Params{Lambda: 10, Kernel: LinearKernel{}})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range p.X {
		if m.Predict(x) != p.Y[i] {
			t.Fatalf("training point %d misclassified", i)
		}
	}
	// Fresh points from the same clusters classify correctly.
	for i := 0; i < 50; i++ {
		if m.Predict([]float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}) != 1 {
			t.Fatal("fresh positive point misclassified")
		}
		if m.Predict([]float64{3 + rng.NormFloat64()*0.3, 3 + rng.NormFloat64()*0.3}) != -1 {
			t.Fatal("fresh negative point misclassified")
		}
	}
	if m.NumSVs() == 0 || m.NumSVs() == len(p.X) {
		t.Errorf("NumSVs = %d of %d, want a sparse subset", m.NumSVs(), len(p.X))
	}
}

func TestTrainXORWithRBF(t *testing.T) {
	// XOR is not linearly separable; the Gaussian kernel handles it.
	p := Problem{
		X: [][]float64{{0, 0}, {1, 1}, {0, 1}, {1, 0}},
		Y: []float64{1, 1, -1, -1},
	}
	m, err := Train(p, Params{Lambda: 50, Kernel: RBFKernel{Sigma2: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range p.X {
		if m.Predict(x) != p.Y[i] {
			t.Errorf("XOR point %d misclassified (decision %.3f)", i, m.Decision(x))
		}
	}
}

func TestTrainPolyKernel(t *testing.T) {
	p := Problem{
		X: [][]float64{{0, 0}, {1, 1}, {0, 1}, {1, 0}},
		Y: []float64{1, 1, -1, -1},
	}
	m, err := Train(p, Params{Lambda: 50, Kernel: PolyKernel{Degree: 2, Gamma: 1, Coef0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range p.X {
		if m.Predict(x) != p.Y[i] {
			t.Errorf("poly-kernel XOR point %d misclassified", i)
		}
	}
}

// TestWeightedIgnoresZeroWeight is the core WSVM property: mislabeled
// points with weight 0 cannot move the boundary and never become support
// vectors.
func TestWeightedIgnoresZeroWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := separableProblem(rng, 30)
	// Inject 20 poisoned points: positive-cluster locations labeled -1,
	// weight 0 (CFG said they are certainly mislabeled).
	p.Weight = make([]float64, len(p.X))
	for i := range p.Weight {
		p.Weight[i] = 1
	}
	for i := 0; i < 20; i++ {
		p.X = append(p.X, []float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3})
		p.Y = append(p.Y, -1)
		p.Weight = append(p.Weight, 0)
	}
	m, err := Train(p, Params{Lambda: 10, Kernel: LinearKernel{}})
	if err != nil {
		t.Fatal(err)
	}
	// The positive cluster must still classify as positive.
	for i := 0; i < 30; i++ {
		if m.Predict([]float64{rng.NormFloat64() * 0.3, rng.NormFloat64() * 0.3}) != 1 {
			t.Fatal("zero-weight poison moved the boundary")
		}
	}
}

// TestWeightedVersusUnweightedOnNoisyLabels reproduces Figure 5's claim:
// with label noise, the weighted model recovers the boundary the
// unweighted model loses.
func TestWeightedVersusUnweightedOnNoisyLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p Problem
	// 60 true positives at (0,0); 60 true negatives at (2.2,2.2) labeled
	// -1; plus 60 noisy points at (0,0) ALSO labeled -1 (the "benign
	// events inside the mixed log").
	for i := 0; i < 60; i++ {
		p.X = append(p.X, []float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4})
		p.Y = append(p.Y, 1)
		p.Weight = append(p.Weight, 1)
	}
	for i := 0; i < 60; i++ {
		p.X = append(p.X, []float64{2.2 + rng.NormFloat64()*0.4, 2.2 + rng.NormFloat64()*0.4})
		p.Y = append(p.Y, -1)
		p.Weight = append(p.Weight, 0.9) // CFG confident these are malicious
	}
	for i := 0; i < 60; i++ {
		p.X = append(p.X, []float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4})
		p.Y = append(p.Y, -1)
		p.Weight = append(p.Weight, 0.05) // CFG says: almost surely benign
	}

	params := Params{Lambda: 5, Kernel: RBFKernel{Sigma2: 2}}
	weighted, err := Train(p, params)
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := Train(Problem{X: p.X, Y: p.Y}, params)
	if err != nil {
		t.Fatal(err)
	}

	// Score both on clean held-out data.
	eval := func(m *Model) float64 {
		correct := 0
		const trials = 200
		for i := 0; i < trials; i++ {
			if m.Predict([]float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4}) == 1 {
				correct++
			}
			if m.Predict([]float64{2.2 + rng.NormFloat64()*0.4, 2.2 + rng.NormFloat64()*0.4}) == -1 {
				correct++
			}
		}
		return float64(correct) / float64(2*trials)
	}
	wAcc, uAcc := eval(weighted), eval(unweighted)
	if wAcc < 0.9 {
		t.Errorf("weighted accuracy = %.3f, want >= 0.9", wAcc)
	}
	if wAcc <= uAcc {
		t.Errorf("weighted accuracy %.3f not above unweighted %.3f", wAcc, uAcc)
	}
}

// TestKKTConditions verifies the solver actually solves the dual: every
// sample satisfies the KKT conditions of the weighted problem within
// tolerance.
func TestKKTConditions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		var p Problem
		p.Weight = make([]float64, 0, 2*n)
		for i := 0; i < n; i++ {
			p.X = append(p.X, []float64{rng.NormFloat64(), rng.NormFloat64()})
			p.Y = append(p.Y, 1)
			p.Weight = append(p.Weight, rng.Float64())
			p.X = append(p.X, []float64{1 + rng.NormFloat64(), 1 + rng.NormFloat64()})
			p.Y = append(p.Y, -1)
			p.Weight = append(p.Weight, rng.Float64())
		}
		lambda := 1 + rng.Float64()*10
		m, err := Train(p, Params{Lambda: lambda, Kernel: RBFKernel{Sigma2: 1}})
		if err != nil {
			return false
		}
		const slack = 5e-3
		for i, x := range p.X {
			yd := p.Y[i] * m.Decision(x)
			ci := lambda * p.Weight[i]
			alpha := alphaOf(m, p, i)
			switch {
			case alpha <= 1e-9: // α=0 → y·d ≥ 1
				if ci > 1e-9 && yd < 1-slack {
					return false
				}
			case alpha >= ci-1e-9: // α=C → y·d ≤ 1
				if yd > 1+slack {
					return false
				}
			default: // free → y·d = 1
				if math.Abs(yd-1) > slack {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// alphaOf recovers |α_i| for training sample i from the model's support
// vector coefficients (0 when the sample is not a support vector).
func alphaOf(m *Model, p Problem, i int) float64 {
	// The model copies its support vectors; the random samples are
	// distinct, so coordinates identify them.
	for s, c := range m.coef {
		if slices.Equal(m.row(s), p.X[i]) {
			return math.Abs(c)
		}
	}
	return 0
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := separableProblem(rng, 50)
	params := Params{Lambda: 3, Kernel: RBFKernel{Sigma2: 1}}
	a, err := Train(p, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(p, params)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSVs() != b.NumSVs() || a.Bias() != b.Bias() {
		t.Error("two identical trainings disagree")
	}
	probe := []float64{1.5, 1.5}
	if a.Decision(probe) != b.Decision(probe) {
		t.Error("decisions disagree")
	}
}

func TestZeroWeightNeverSupportVector(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := separableProblem(rng, 20)
	p.Weight = make([]float64, len(p.X))
	for i := range p.Weight {
		p.Weight[i] = 1
	}
	p.Weight[3] = 0
	p.Weight[7] = 0
	m, err := Train(p, Params{Lambda: 10, Kernel: LinearKernel{}})
	if err != nil {
		t.Fatal(err)
	}
	for s := range m.coef {
		if sv := m.row(s); slices.Equal(sv, p.X[3]) || slices.Equal(sv, p.X[7]) {
			t.Error("zero-weight sample became a support vector")
		}
	}
}

func TestScaler(t *testing.T) {
	x := [][]float64{{0, 10, 5}, {10, 20, 5}}
	s, err := FitScaler(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 3 {
		t.Errorf("Dim() = %d", s.Dim())
	}
	got := s.ApplyInto(nil, []float64{5, 15, 5})
	want := []float64{0.5, 0.5, 0} // constant column maps to 0
	for d := range want {
		if math.Abs(got[d]-want[d]) > 1e-12 {
			t.Errorf("ApplyInto[%d] = %v, want %v", d, got[d], want[d])
		}
	}
	// A recycled buffer is reused, not grown; the training corners map to
	// 0 and 1.
	buf := s.ApplyInto(got[:0], x[0])
	if &buf[0] != &got[0] {
		t.Error("ApplyInto reallocated despite sufficient capacity")
	}
	if buf[0] != 0 {
		t.Errorf("low corner = %v, want 0", buf[0])
	}
	if hi := s.ApplyInto(buf[:0], x[1])[0]; hi != 1 {
		t.Errorf("high corner = %v, want 1", hi)
	}
	// Out-of-range values extrapolate rather than clamp.
	if v := s.ApplyInto(nil, []float64{20, 10, 5})[0]; v != 2 {
		t.Errorf("extrapolated = %v, want 2", v)
	}
}

func TestFitScalerValidation(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("FitScaler(nil) succeeded")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestCrossValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := separableProblem(rng, 40)
	acc, err := CrossValidate(p, Params{Lambda: 5, Kernel: RBFKernel{Sigma2: 1}}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Errorf("CV accuracy = %.3f on separable data, want >= 0.95", acc)
	}
	if _, err := CrossValidate(p, Params{Lambda: 5}, 1, 1); err == nil {
		t.Error("folds=1 accepted")
	}
}

func TestCrossValidateDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := separableProblem(rng, 25)
	params := Params{Lambda: 2, Kernel: RBFKernel{Sigma2: 1}}
	a, err := CrossValidate(p, params, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(p, params, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

func TestGridSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := separableProblem(rng, 30)
	grid := GridSpec{Lambdas: []float64{1, 10}, Sigma2s: []float64{0.5, 2}, Folds: 3, Seed: 1}
	params, acc, err := GridSearch(p, grid)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("grid best accuracy = %.3f, want >= 0.9", acc)
	}
	if params.Lambda == 0 || params.Kernel == nil {
		t.Error("grid returned zero params")
	}
	if _, _, err := GridSearch(p, GridSpec{}); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestKernelStrings(t *testing.T) {
	if (LinearKernel{}).String() != "linear" {
		t.Error("linear name")
	}
	if (RBFKernel{Sigma2: 2}).String() != "rbf(σ²=2)" {
		t.Errorf("rbf name = %s", RBFKernel{Sigma2: 2}.String())
	}
	if (PolyKernel{Degree: 2, Gamma: 1, Coef0: 0}).String() == "" {
		t.Error("poly name empty")
	}
}

func TestRBFKernelValues(t *testing.T) {
	k := RBFKernel{Sigma2: 4}
	if got := k.Compute([]float64{1, 2}, []float64{1, 2}); got != 1 {
		t.Errorf("k(x,x) = %v, want 1", got)
	}
	// ‖(0)-(2)‖² = 4 → exp(-1)
	if got := k.Compute([]float64{0}, []float64{2}); math.Abs(got-math.Exp(-1)) > 1e-12 {
		t.Errorf("k = %v, want exp(-1)", got)
	}
}

// TestApplyIntoMatchesApply checks the scratch scaler against a fresh
// allocation: scaling into a recycled buffer gives the same vector as
// scaling into a new slice, and reuses the buffer once it is large enough.
func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	prob := noisyProblem(rng, 25)
	sc, err := FitScaler(prob.X)
	if err != nil {
		t.Fatal(err)
	}
	var buf []float64
	for i, v := range prob.X {
		want := sc.ApplyInto(nil, v)
		prev := buf
		buf = sc.ApplyInto(buf[:0], v)
		if len(buf) != len(want) {
			t.Fatalf("vector %d: ApplyInto returned %d dims, want %d", i, len(buf), len(want))
		}
		if i > 0 && &buf[0] != &prev[0] {
			t.Fatalf("vector %d: ApplyInto reallocated despite sufficient capacity", i)
		}
		for d := range want {
			if buf[d] != want[d] {
				t.Fatalf("vector %d dim %d: %v != %v", i, d, buf[d], want[d])
			}
		}
	}
}
