package svm

import (
	"errors"
	"flag"
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Solver telemetry: kernel work (the dominant training cost) and SMO
// convergence behaviour across training runs, added once per solve.
var (
	mKernelEvals = telemetry.NewCounter("svm_kernel_evals_total", "kernel function evaluations (one per symmetric pair of an eagerly filled kernel matrix)")
	mTrainRuns   = telemetry.NewCounter("svm_train_runs_total", "SMO training runs")
	mIterHist    = telemetry.NewHistogram("svm_smo_iterations", "SMO iterations per training run", telemetry.CountBuckets())
	mLastIters   = telemetry.NewGauge("svm_last_iterations", "SMO iterations of the most recent training run")
	mLastObj     = telemetry.NewGauge("svm_last_objective", "final dual objective of the most recent training run")
	mLastSVs     = telemetry.NewGauge("svm_last_support_vectors", "support vectors in the most recent model")
	mCappedRuns  = telemetry.NewCounter("svm_iteration_capped_runs_total", "training runs that hit MaxIter before converging")
)

// Problem is a binary classification training set.
type Problem struct {
	// X are the feature vectors; all must share one dimensionality.
	X [][]float64
	// Y are the labels, +1 (benign) or -1 (malicious/mixed).
	Y []float64
	// Weight holds the per-sample confidence cᵢ ∈ [0,1]; nil means every
	// sample has full weight 1. A sample's box constraint is λ·cᵢ, so
	// weight 0 removes the sample's influence entirely.
	Weight []float64
}

// Validate checks the problem's structural invariants.
func (p *Problem) Validate() error {
	if len(p.X) == 0 {
		return errors.New("svm: empty training set")
	}
	if len(p.Y) != len(p.X) {
		return fmt.Errorf("svm: %d labels for %d samples", len(p.Y), len(p.X))
	}
	if p.Weight != nil && len(p.Weight) != len(p.X) {
		return fmt.Errorf("svm: %d weights for %d samples", len(p.Weight), len(p.X))
	}
	dim := len(p.X[0])
	var pos, neg bool
	for i := range p.X {
		if len(p.X[i]) != dim {
			return fmt.Errorf("svm: sample %d has dimension %d, want %d", i, len(p.X[i]), dim)
		}
		switch p.Y[i] {
		case 1:
			pos = true
		case -1:
			neg = true
		default:
			return fmt.Errorf("svm: label %v of sample %d not in {-1,+1}", p.Y[i], i)
		}
		if p.Weight != nil {
			if w := p.Weight[i]; w < 0 || w > 1 || math.IsNaN(w) {
				return fmt.Errorf("svm: weight %v of sample %d out of [0,1]", w, i)
			}
		}
	}
	if !pos || !neg {
		return errors.New("svm: training set needs both classes")
	}
	return nil
}

// Params configures training.
type Params struct {
	// Lambda is the trade-off parameter λ (the C of C-SVM).
	Lambda float64
	// Kernel defaults to RBFKernel{Sigma2: 1}.
	Kernel Kernel
	// Tol is the KKT violation tolerance terminating SMO (default 1e-3).
	Tol float64
	// MaxIter bounds SMO iterations (default 100·n, at least 10000).
	MaxIter int
	// SecondOrderWSS enables LIBSVM's second-order working-set selection
	// (WSS2): the first index maximises the KKT violation, the second
	// minimises the quadratic gain estimate. Converges in fewer
	// iterations on ill-conditioned problems; the default (false) is the
	// classic maximal-violating-pair rule.
	SecondOrderWSS bool
}

func (p Params) withDefaults(n int) Params {
	if p.Kernel == nil {
		p.Kernel = RBFKernel{Sigma2: 1}
	}
	if p.Tol <= 0 {
		p.Tol = 1e-3
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 100 * n
		if p.MaxIter < 10000 {
			p.MaxIter = 10000
		}
	}
	return p
}

// Model is a trained classifier: the support vectors and their dual
// coefficients.
type Model struct {
	kernel Kernel
	// svX are the support vectors. When they share one width, dim, they
	// are views into sv, one row-major matrix the model owns.
	svX [][]float64
	sv  []float64
	dim int
	// sigma2 is the RBF kernel's σ² when Decision scores over sv, and 0
	// when it takes the Kernel.Compute loop.
	sigma2 float64
	// nonFinite is set when a support vector holds a NaN or ±Inf
	// coordinate.
	nonFinite bool
	// svCoef holds αᵢ·yᵢ for each support vector.
	svCoef []float64
	bias   float64
	// Iters reports how many SMO iterations training took.
	Iters int
	// BoundedSVs counts support vectors at their upper bound.
	BoundedSVs int
	// Objective is the final dual objective value ½αᵀQα − Σαᵢ.
	Objective float64
}

// setSVs gives m the support vectors rows, with coefficients coef. Rows
// of one width are copied into one row-major matrix that svX then views,
// so the model pins none of the caller's vectors, and the copy notes a
// non-finite coordinate. Ragged rows, which Check rejects by width, are
// kept as they are and scored by the Kernel.Compute loop.
func (m *Model) setSVs(rows [][]float64, coef []float64) {
	m.svX, m.svCoef, m.sv, m.dim, m.sigma2, m.nonFinite = rows, coef, nil, 0, 0, false
	d := 0
	if len(rows) > 0 {
		d = len(rows[0])
	}
	for _, r := range rows {
		if len(r) != d {
			return
		}
	}
	m.sv, m.dim = make([]float64, len(rows)*d), d
	for i, r := range rows {
		row := m.sv[i*d : (i+1)*d : (i+1)*d]
		copy(row, r)
		for _, v := range row {
			m.nonFinite = m.nonFinite || !finite(v)
		}
		rows[i] = row
	}
	if k, ok := m.kernel.(RBFKernel); ok {
		m.sigma2 = k.Sigma2
	}
}

// NumSVs returns the number of support vectors.
func (m *Model) NumSVs() int { return len(m.svX) }

// Bias returns the intercept b of the decision function.
func (m *Model) Bias() float64 { return m.bias }

// Decision returns the raw decision value Σ αᵢyᵢk(xᵢ,x) + b; positive
// means benign, negative malicious (Eqn. 5).
func (m *Model) Decision(x []float64) float64 {
	if m.sigma2 != 0 {
		return m.rbfDecision(x)
	}
	s := m.bias
	for i, sv := range m.svX {
		s += m.svCoef[i] * m.kernel.Compute(sv, x)
	}
	return s
}

// rbfDecision is Decision for the RBF kernel over the flat matrix. It
// sums four support vectors' squared distances side by side, each in
// coordinate order with RBFKernel.Compute's statements, then adds their
// terms to the bias in SV order, so it is bit-identical to the
// Kernel.Compute loop; the four independent add chains are its speed.
func (m *Model) rbfDecision(x []float64) float64 {
	d, s2, coef := m.dim, m.sigma2, m.svCoef
	x = x[:d]
	s := m.bias
	j := 0
	for ; j+4 <= len(coef); j += 4 {
		r0 := m.sv[j*d:][:len(x)]
		r1 := m.sv[(j+1)*d:][:len(x)]
		r2 := m.sv[(j+2)*d:][:len(x)]
		r3 := m.sv[(j+3)*d:][:len(x)]
		var a0, a1, a2, a3 float64
		for k, xk := range x {
			d0 := r0[k] - xk
			a0 += d0 * d0
			d1 := r1[k] - xk
			a1 += d1 * d1
			d2 := r2[k] - xk
			a2 += d2 * d2
			d3 := r3[k] - xk
			a3 += d3 * d3
		}
		s += coef[j] * math.Exp(-a0/s2)
		s += coef[j+1] * math.Exp(-a1/s2)
		s += coef[j+2] * math.Exp(-a2/s2)
		s += coef[j+3] * math.Exp(-a3/s2)
	}
	for ; j < len(coef); j++ {
		r := m.sv[j*d:][:len(x)]
		var a float64
		for k, xk := range x {
			dk := r[k] - xk
			a += dk * dk
		}
		s += coef[j] * math.Exp(-a/s2)
	}
	return s
}

// Check validates a decoded model for dim-dimensional inputs: dim finite
// coordinates per support vector, finite coefficients and bias, and a
// kernel that passes checkKernel.
func (m *Model) Check(dim int) error {
	if !finite(m.bias) {
		return fmt.Errorf("svm: model bias %v is not finite", m.bias)
	}
	for i, sv := range m.svX {
		if len(sv) != dim || !finite(m.svCoef[i]) {
			return fmt.Errorf("svm: support vector %d has dimension %d (want %d) and coefficient %v", i, len(sv), dim, m.svCoef[i])
		}
	}
	if m.nonFinite {
		return errors.New("svm: a support vector has a non-finite coordinate")
	}
	return checkKernel(m.kernel)
}

// Predict returns the predicted label of x: +1 (benign) or -1 (malicious).
func (m *Model) Predict(x []float64) float64 {
	if m.Decision(x) < 0 {
		return -1
	}
	return 1
}

// Check reports whether Train and GridSearch accept the parameters: λ
// finite and positive, and a kernel that passes checkKernel.
func (p Params) Check() error {
	if !finitePositive(p.Lambda) {
		return fmt.Errorf("svm: λ %v must be finite and positive", p.Lambda)
	}
	return checkKernel(p.Kernel)
}

// FlagParams resolves a command's pair of flags that fix λ and the RBF
// σ², defined on fs as lambdaFlag and sigma2Flag and parsed into lambda
// and sigma2. Both set give parameters, which must pass Check; neither
// set gives nil, which selects grid search; one alone is a usage error.
func FlagParams(fs *flag.FlagSet, lambdaFlag, sigma2Flag string, lambda, sigma2 float64) (*Params, error) {
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set[lambdaFlag] != set[sigma2Flag] {
		return nil, fmt.Errorf("-%s and -%s go together: pass both to fix the parameters, or neither to grid-search them", lambdaFlag, sigma2Flag)
	}
	if !set[lambdaFlag] {
		return nil, nil
	}
	p := Params{Lambda: lambda, Kernel: RBFKernel{Sigma2: sigma2}}
	if err := p.Check(); err != nil {
		return nil, fmt.Errorf("-%s %v -%s %v: %w", lambdaFlag, lambda, sigma2Flag, sigma2, err)
	}
	return &p, nil
}

// Train solves the weighted SVM dual with SMO.
func Train(prob Problem, params Params) (*Model, error) {
	s, err := solveAll(prob, params, nil)
	if err != nil {
		return nil, err
	}
	return s.model(prob.X), nil
}

// solveAll validates prob and params and solves the dual over every
// sample, reading k, or a new gram when k is nil.
func solveAll(prob Problem, params Params, k *gram) (*solver, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults(len(prob.X))
	if err := params.Check(); err != nil {
		return nil, err
	}
	if k == nil {
		k = newGram(prob.X, params.Kernel)
	}
	idx := make([]int, len(prob.X))
	for i := range idx {
		idx[i] = i
	}
	return solve(prob, params, k, idx), nil
}

// solve runs SMO on prob, whose samples are the samples idx of k.
func solve(prob Problem, params Params, k *gram, idx []int) *solver {
	c := make([]float64, len(idx))
	for i := range c {
		c[i] = params.Lambda
		if prob.Weight != nil {
			c[i] = params.Lambda * prob.Weight[i]
		}
	}
	s := newSolver(k, idx, prob.Y, c, params.withDefaults(len(idx)))
	s.solve()
	return s
}

// model collects the support vectors into a Model; x is the gram's.
func (s *solver) model(x [][]float64) *Model {
	m := &Model{kernel: s.k.kernel, bias: s.rho, Iters: s.iters, Objective: s.objective()}
	var rows [][]float64
	var coef []float64
	for l, a := range s.alpha {
		if a > 0 {
			rows = append(rows, x[s.idx[l]])
			coef = append(coef, a*s.y[l])
			if a >= s.c[l]-1e-12 {
				m.BoundedSVs++
			}
		}
	}
	m.setSVs(rows, coef)
	return m
}

// decisions sets dst[p] to the decision value on gram sample p, for each
// p in ps, with Model.Decision's exact summation: the bias, then αₗyₗ·Kₗₚ
// over the support vectors in order.
func (s *solver) decisions(ps []int, dst []float64) {
	for _, p := range ps {
		dst[p] = s.rho
	}
	for l, a := range s.alpha {
		if a > 0 {
			coef, row := a*s.y[l], s.k.row(s.idx[l])
			for _, p := range ps {
				dst[p] += coef * row[p]
			}
		}
	}
}

// solver carries SMO state for one training run over the samples idx of
// a gram. No Q = yyᵀ∘K is materialised: the gradient is kept label-signed
// and raw kernel values are signed as they are read. y ∈ {±1}, so every
// signed value is an exact sign flip of Q's; only the sign of an exactly
// zero gradient entry may differ, which no comparison or output sees.
type solver struct {
	k      *gram
	idx    []int // local sample → gram index
	y, c   []float64
	params Params
	alpha  []float64
	yg     []float64 // −yₜ·∇ₜ for the dual gradient ∇ = Qα − 1
	iters  int
	rho    float64 // the decision bias found at convergence
	// upOff and lowOff are 0 for a member of I_up (I_low) and −Inf (+Inf)
	// otherwise: added to ygₜ they keep non-members out of the maximum
	// (minimum) without a branch on membership.
	upOff, lowOff []float64
}

// newSolver prepares SMO at α = 0 (∇ = −1) over the samples idx of k,
// with labels y and box bounds c.
func newSolver(k *gram, idx []int, y, c []float64, params Params) *solver {
	n := len(idx)
	s := &solver{
		k: k, idx: idx, y: y, c: c, params: params,
		alpha:  make([]float64, n),
		yg:     make([]float64, n),
		upOff:  make([]float64, n),
		lowOff: make([]float64, n),
	}
	copy(s.yg, y)
	return s
}

// setMembership refreshes sample t's membership from αₜ: I_up holds
// αₜ < Cₜ with y=+1 or αₜ > 0 with y=-1; I_low is the mirror.
func (s *solver) setMembership(t int) {
	up, low := s.alpha[t] < s.c[t], s.alpha[t] > 0
	if s.y[t] < 0 {
		up, low = low, up
	}
	s.upOff[t], s.lowOff[t] = math.Inf(-1), math.Inf(1)
	if up {
		s.upOff[t] = 0
	}
	if low {
		s.lowOff[t] = 0
	}
}

// selectWorkingSet sets every sample's membership and returns the first
// working-set pair; the violation is max_{I_up}(yg) − min_{I_low}(yg).
func (s *solver) selectWorkingSet() (i, j int, ok bool) {
	gmax, gmin := math.Inf(-1), math.Inf(1)
	i, j = -1, -1
	for t, yg := range s.yg {
		s.setMembership(t)
		if v := yg + s.upOff[t]; v > gmax {
			gmax, i = v, t
		}
		if v := yg + s.lowOff[t]; v < gmin {
			gmin, j = v, t
		}
	}
	return s.pick(i, j, gmax, gmin)
}

// pick finishes a selection from the maximal violating pair (i, j):
// ok=false when the violation is within tolerance; with WSS2 the second
// index becomes the second-order gain minimiser.
func (s *solver) pick(i, j int, gmax, gmin float64) (int, int, bool) {
	if i < 0 || j < 0 || gmax-gmin < s.params.Tol {
		return -1, -1, false
	}
	if s.params.SecondOrderWSS {
		if j2 := s.selectSecondOrder(i, gmax); j2 >= 0 {
			j = j2
		}
	}
	return i, j, true
}

// selectSecondOrder picks the second working index by maximising the
// estimated objective decrease -b²/a against the fixed first index
// (LIBSVM's WSS2).
func (s *solver) selectSecondOrder(i int, gmax float64) int {
	ki := s.k.row(s.idx[i])
	kii := ki[s.idx[i]]
	best, bestJ := math.Inf(1), -1
	for t, g := range s.idx {
		if s.lowOff[t] != 0 {
			continue
		}
		b := gmax - s.yg[t]
		if b <= 0 {
			continue
		}
		a := kii + s.k.row(g)[g] - 2*ki[g]
		if a <= 0 {
			a = 1e-12
		}
		if gain := -(b * b) / a; gain < best {
			best, bestJ = gain, t
		}
	}
	return bestJ
}

// solve runs SMO to convergence or iteration cap and records telemetry.
func (s *solver) solve() {
	i, j, ok := s.selectWorkingSet()
	for s.iters = 0; ok && s.iters < s.params.MaxIter; s.iters++ {
		i, j, ok = s.update(i, j)
	}
	s.rho = s.computeBias()

	var svs int
	for _, a := range s.alpha {
		if a > 0 {
			svs++
		}
	}
	mTrainRuns.Inc()
	mIterHist.Observe(float64(s.iters))
	mLastIters.Set(float64(s.iters))
	mLastObj.Set(s.objective())
	mLastSVs.Set(float64(svs))
	if s.iters >= s.params.MaxIter {
		mCappedRuns.Inc()
	}
}

// objective returns the dual objective ½αᵀQα − Σαᵢ. With ∇ = Qα − 1
// this is ½Σαᵢ(∇ᵢ − 1), an O(n) read of existing solver state.
func (s *solver) objective() float64 {
	var obj float64
	for t, a := range s.alpha {
		obj += a * (-s.y[t]*s.yg[t] - 1)
	}
	return obj / 2
}

// update optimises the pair (αᵢ, αⱼ) analytically subject to the box and
// equality constraints, then refreshes the gradient and, in the same
// pass over the samples, selects the next working-set pair.
func (s *solver) update(i, j int) (int, int, bool) {
	pi, pj := s.idx[i], s.idx[j]
	ki, kj := s.k.row(pi), s.k.row(pj)
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	gradI, gradJ := -s.y[i]*s.yg[i], -s.y[j]*s.yg[j]
	const minQuad = 1e-12

	// The curvature along the feasible direction is K_ii + K_jj - 2K_ij in
	// both label configurations.
	quad := ki[pi] + kj[pj] - 2*ki[pj]
	if quad < minQuad {
		quad = minQuad
	}

	if s.y[i] != s.y[j] {
		delta := (-gradI - gradJ) / quad
		diff := s.alpha[i] - s.alpha[j]
		s.alpha[i] += delta
		s.alpha[j] += delta
		if diff > 0 {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = diff
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = -diff
			}
		}
		if diff > s.c[i]-s.c[j] {
			if s.alpha[i] > s.c[i] {
				s.alpha[i] = s.c[i]
				s.alpha[j] = s.c[i] - diff
			}
		} else {
			if s.alpha[j] > s.c[j] {
				s.alpha[j] = s.c[j]
				s.alpha[i] = s.c[j] + diff
			}
		}
	} else {
		delta := (gradI - gradJ) / quad
		sum := s.alpha[i] + s.alpha[j]
		s.alpha[i] -= delta
		s.alpha[j] += delta
		if sum > s.c[i] {
			if s.alpha[i] > s.c[i] {
				s.alpha[i] = s.c[i]
				s.alpha[j] = sum - s.c[i]
			}
		} else {
			if s.alpha[j] < 0 {
				s.alpha[j] = 0
				s.alpha[i] = sum
			}
		}
		if sum > s.c[j] {
			if s.alpha[j] > s.c[j] {
				s.alpha[j] = s.c[j]
				s.alpha[i] = sum - s.c[j]
			}
		} else {
			if s.alpha[i] < 0 {
				s.alpha[i] = 0
				s.alpha[j] = sum
			}
		}
	}

	dAi, dAj := s.alpha[i]-oldAi, s.alpha[j]-oldAj
	if dAi == 0 && dAj == 0 {
		// Nothing moved, so the next selection is this one.
		return i, j, true
	}
	s.setMembership(i)
	s.setMembership(j)
	// ∇ₜ += yᵢyₜKᵢₜΔαᵢ + yⱼyₜKⱼₜΔαⱼ, so ygₜ −= Kᵢₜ·yᵢΔαᵢ + Kⱼₜ·yⱼΔαⱼ. One
	// length for the per-sample slices drops their bounds checks.
	ai, aj := s.y[i]*dAi, s.y[j]*dAj
	gmax, gmin := math.Inf(-1), math.Inf(1)
	ni, nj := -1, -1
	yg, upOff, lowOff := s.yg[:len(s.idx)], s.upOff[:len(s.idx)], s.lowOff[:len(s.idx)]
	for t, p := range s.idx {
		v := yg[t] - (ki[p]*ai + kj[p]*aj)
		yg[t] = v
		if u := v + upOff[t]; u > gmax {
			gmax, ni = u, t
		}
		if l := v + lowOff[t]; l < gmin {
			gmin, nj = l, t
		}
	}
	return s.pick(ni, nj, gmax, gmin)
}

// computeBias derives the intercept from the KKT conditions: for free
// support vectors b = -yᵗ·gᵗ; otherwise the midpoint of the feasible
// interval.
func (s *solver) computeBias() float64 {
	var sum float64
	var free int
	ub, lb := math.Inf(1), math.Inf(-1)
	for t := range s.alpha {
		if s.c[t] <= 1e-12 {
			// Zero-weight samples impose no KKT condition on b.
			continue
		}
		yg := s.yg[t]
		switch {
		case s.alpha[t] > 1e-12 && s.alpha[t] < s.c[t]-1e-12:
			sum += yg
			free++
		default:
			// KKT: samples at α=0 with y=+1 (and at the bound with y=-1)
			// force b ≥ yg; the mirror set forces b ≤ yg.
			lower := (s.y[t] > 0 && s.alpha[t] <= 1e-12) || (s.y[t] < 0 && s.alpha[t] >= s.c[t]-1e-12)
			if lower {
				if yg > lb {
					lb = yg
				}
			} else {
				if yg < ub {
					ub = yg
				}
			}
		}
	}
	if free > 0 {
		return sum / float64(free)
	}
	if math.IsInf(ub, 1) && math.IsInf(lb, -1) {
		return 0
	}
	if math.IsInf(ub, 1) {
		return lb
	}
	if math.IsInf(lb, -1) {
		return ub
	}
	return (ub + lb) / 2
}
