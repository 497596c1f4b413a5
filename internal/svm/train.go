package svm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/telemetry"
)

// Solver telemetry: kernel work (the dominant training cost), cache
// effectiveness and SMO convergence behaviour across training runs.
var (
	mKernelEvals = telemetry.NewCounter("svm_kernel_evals_total", "kernel function evaluations")
	mCacheHits   = telemetry.NewCounter("svm_kernel_cache_hits_total", "kernel cache row hits")
	mCacheMisses = telemetry.NewCounter("svm_kernel_cache_misses_total", "kernel cache row misses (rows computed on demand)")
	mTrainRuns   = telemetry.NewCounter("svm_train_runs_total", "SMO training runs")
	mIterHist    = telemetry.NewHistogram("svm_smo_iterations", "SMO iterations per training run", telemetry.CountBuckets())
	mLastIters   = telemetry.NewGauge("svm_last_iterations", "SMO iterations of the most recent training run")
	mLastObj     = telemetry.NewGauge("svm_last_objective", "final dual objective of the most recent training run")
	mLastSVs     = telemetry.NewGauge("svm_last_support_vectors", "support vectors in the most recent model")
	mCappedRuns  = telemetry.NewCounter("svm_iteration_capped_runs_total", "training runs that hit MaxIter before converging")
)

// trajectoryEvery is the SMO iteration interval between objective
// trajectory samples; the trajectory stays small even on capped runs.
const trajectoryEvery = 64

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
	svX    [][]float64
	// svCoef holds αᵢ·yᵢ for each support vector.
	svCoef []float64
	bias   float64
	// Iters reports how many SMO iterations training took.
	Iters int
	// BoundedSVs counts support vectors at their upper bound.
	BoundedSVs int
	// Objective is the final dual objective value ½αᵀQα − Σαᵢ.
	Objective float64
	// Trajectory samples the dual objective every trajectoryEvery SMO
	// iterations (plus the final value), recording convergence behaviour.
	// It is diagnostic only and not persisted with the model.
	Trajectory []float64
}

// NumSVs returns the number of support vectors.
func (m *Model) NumSVs() int { return len(m.svX) }

// Bias returns the intercept b of the decision function.
func (m *Model) Bias() float64 { return m.bias }

// Decision returns the raw decision value Σ αᵢyᵢk(xᵢ,x) + b; positive
// means benign, negative malicious (Eqn. 5).
func (m *Model) Decision(x []float64) float64 {
	s := m.bias
	for i, sv := range m.svX {
		s += m.svCoef[i] * m.kernel.Compute(sv, x)
	}
	return s
}

// Predict returns the predicted label of x: +1 (benign) or -1 (malicious).
func (m *Model) Predict(x []float64) float64 {
	if m.Decision(x) < 0 {
		return -1
	}
	return 1
}

// Train solves the weighted SVM dual with SMO.
func Train(prob Problem, params Params) (*Model, error) {
	return trainShared(prob, params, nil, nil)
}

// trainShared is Train optionally gathering its Q rows from a shared
// raw-row cache: gidx maps the problem's sample indices to the cache's.
// Results are byte-identical to the self-contained path — the gathered
// products yᵢ·yⱼ·k(xᵢ,xⱼ) are the exact expressions computeRow
// evaluates.
func trainShared(prob Problem, params Params, shared *RowCache, gidx []int) (*Model, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	if params.Lambda <= 0 {
		return nil, fmt.Errorf("svm: Lambda %v must be positive", params.Lambda)
	}
	n := len(prob.X)
	params = params.withDefaults(n)

	// Per-sample box bounds λ·cᵢ.
	c := make([]float64, n)
	for i := range c {
		c[i] = params.Lambda
		if prob.Weight != nil {
			c[i] = params.Lambda * prob.Weight[i]
		}
	}

	s := newSolverShared(prob.X, prob.Y, c, params, shared, gidx)
	s.solve()

	m := &Model{
		kernel: params.Kernel, bias: s.bias(), Iters: s.iters,
		Objective: s.objective(), Trajectory: s.trajectory,
	}
	for i := 0; i < n; i++ {
		if s.alpha[i] > 0 {
			m.svX = append(m.svX, prob.X[i])
			m.svCoef = append(m.svCoef, s.alpha[i]*prob.Y[i])
			if s.alpha[i] >= c[i]-1e-12 {
				m.BoundedSVs++
			}
		}
	}
	mTrainRuns.Inc()
	mIterHist.Observe(float64(s.iters))
	mLastIters.Set(float64(s.iters))
	mLastObj.Set(m.Objective)
	mLastSVs.Set(float64(m.NumSVs()))
	if s.iters >= params.MaxIter {
		mCappedRuns.Inc()
	}
	return m, nil
}

// solver carries SMO state for one training run.
type solver struct {
	x      [][]float64
	y      []float64
	c      []float64
	params Params
	alpha  []float64
	grad   []float64 // gradient of the dual objective: (Qα)ᵢ - 1
	q      *kernelCache
	iters  int
	// trajectory samples the dual objective during solve.
	trajectory []float64
	// rho is the decision bias determined at convergence.
	rho float64
}

func newSolver(x [][]float64, y, c []float64, params Params) *solver {
	return newSolverShared(x, y, c, params, nil, nil)
}

func newSolverShared(x [][]float64, y, c []float64, params Params, shared *RowCache, gidx []int) *solver {
	n := len(x)
	s := &solver{
		x: x, y: y, c: c, params: params,
		alpha: make([]float64, n),
		grad:  make([]float64, n),
		q:     newKernelCache(x, y, params.Kernel, shared, gidx),
	}
	for i := range s.grad {
		s.grad[i] = -1
	}
	return s
}

// selectWorkingSet returns the working-set pair (i, j), or ok=false when
// the KKT conditions hold within tolerance. The first index always
// maximises the violation; the second is either the minimal-violation
// index (WSS1) or the second-order gain minimiser (WSS2).
func (s *solver) selectWorkingSet() (i, j int, ok bool) {
	// I_up:  α_t < C_t with y=+1, or α_t > 0 with y=-1
	// I_low: α_t < C_t with y=-1, or α_t > 0 with y=+1
	// violation = max_{I_up}(-y·g) - min_{I_low}(-y·g)
	gmax, gmin := math.Inf(-1), math.Inf(1)
	i, j = -1, -1
	for t := range s.alpha {
		yg := -s.y[t] * s.grad[t]
		inUp := (s.y[t] > 0 && s.alpha[t] < s.c[t]) || (s.y[t] < 0 && s.alpha[t] > 0)
		inLow := (s.y[t] < 0 && s.alpha[t] < s.c[t]) || (s.y[t] > 0 && s.alpha[t] > 0)
		if inUp && yg > gmax {
			gmax, i = yg, t
		}
		if inLow && yg < gmin {
			gmin, j = yg, t
		}
	}
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
	qi := s.q.row(i)
	kii := s.y[i] * s.y[i] * qi[i] // = K_ii
	best, bestJ := math.Inf(1), -1
	for t := range s.alpha {
		inLow := (s.y[t] < 0 && s.alpha[t] < s.c[t]) || (s.y[t] > 0 && s.alpha[t] > 0)
		if !inLow {
			continue
		}
		yg := -s.y[t] * s.grad[t]
		b := gmax - yg
		if b <= 0 {
			continue
		}
		ktt := s.q.row(t)[t]
		kit := s.y[i] * s.y[t] * qi[t] // strip label signs: K_it
		a := kii + ktt - 2*kit
		if a <= 0 {
			a = 1e-12
		}
		if gain := -(b * b) / a; gain < best {
			best, bestJ = gain, t
		}
	}
	return bestJ
}

// solve runs SMO to convergence or iteration cap.
func (s *solver) solve() {
	for s.iters = 0; s.iters < s.params.MaxIter; s.iters++ {
		i, j, ok := s.selectWorkingSet()
		if !ok {
			break
		}
		s.update(i, j)
		if s.iters%trajectoryEvery == 0 {
			s.trajectory = append(s.trajectory, s.objective())
		}
	}
	s.trajectory = append(s.trajectory, s.objective())
	s.rho = s.computeBias()
}

// objective returns the dual objective ½αᵀQα − Σαᵢ. With grad = Qα − 1
// this is ½Σαᵢ(gradᵢ − 1), an O(n) read of existing solver state.
func (s *solver) objective() float64 {
	var obj float64
	for t := range s.alpha {
		obj += s.alpha[t] * (s.grad[t] - 1)
	}
	return obj / 2
}

// update optimises the pair (αᵢ, αⱼ) analytically subject to the box and
// equality constraints, then refreshes the gradient.
func (s *solver) update(i, j int) {
	qi := s.q.row(i)
	qj := s.q.row(j)
	oldAi, oldAj := s.alpha[i], s.alpha[j]
	const minQuad = 1e-12

	// The curvature along the feasible direction is K_ii + K_jj - 2K_ij in
	// both label configurations.
	quad := qi[i] + qj[j] - 2*s.q.k(i, j)
	if quad < minQuad {
		quad = minQuad
	}

	if s.y[i] != s.y[j] {
		delta := (-s.grad[i] - s.grad[j]) / quad
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
		delta := (s.grad[i] - s.grad[j]) / quad
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
		return
	}
	for t := range s.grad {
		s.grad[t] += qi[t]*dAi + qj[t]*dAj
	}
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
		yg := -s.y[t] * s.grad[t]
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

func (s *solver) bias() float64 { return s.rho }

// kernelCache precomputes or lazily caches rows of Q, Q[i][j] =
// yᵢyⱼk(xᵢ,xⱼ). With a shared RowCache attached, rows are gathered
// from its raw kernel rows instead of re-evaluating the kernel, so
// solvers over overlapping sample sets (cross-validation folds, the
// λ axis of a grid sweep) each pay only the cheap label-sign products.
type kernelCache struct {
	x      [][]float64
	y      []float64
	kernel Kernel
	rows   [][]float64
	// full indicates the whole matrix was precomputed.
	full bool
	// shared, when non-nil, is the raw-row source; gidx maps local
	// sample index to shared cache index.
	shared *RowCache
	gidx   []int
}

// fullMatrixLimit is the sample count up to which the entire Q matrix is
// precomputed (n² float64; 4000² ≈ 128 MB is the ceiling).
const fullMatrixLimit = 4000

func newKernelCache(x [][]float64, y []float64, k Kernel, shared *RowCache, gidx []int) *kernelCache {
	c := &kernelCache{x: x, y: y, kernel: k, rows: make([][]float64, len(x)), shared: shared, gidx: gidx}
	if len(x) <= fullMatrixLimit {
		c.full = true
		for i := range x {
			c.rows[i] = c.computeRow(i)
		}
	}
	return c
}

func (c *kernelCache) computeRow(i int) []float64 {
	row := make([]float64, len(c.x))
	if c.shared != nil {
		kr := c.shared.Row(c.gidx[i])
		for j := range c.x {
			row[j] = c.y[i] * c.y[j] * kr[c.gidx[j]]
		}
		return row
	}
	for j := range c.x {
		row[j] = c.y[i] * c.y[j] * c.kernel.Compute(c.x[i], c.x[j])
	}
	mKernelEvals.Add(uint64(len(row)))
	return row
}

// row returns Q's row i, computing and caching it on demand.
func (c *kernelCache) row(i int) []float64 {
	if c.rows[i] == nil {
		mCacheMisses.Inc()
		c.rows[i] = c.computeRow(i)
		return c.rows[i]
	}
	mCacheHits.Inc()
	return c.rows[i]
}

// k returns the raw kernel value k(xᵢ,xⱼ) (without label signs).
func (c *kernelCache) k(i, j int) float64 {
	return c.y[i] * c.y[j] * c.row(i)[j]
}
