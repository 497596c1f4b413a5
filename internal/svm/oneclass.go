package svm

import (
	"errors"
	"fmt"
	"math"
)

// One-class SVM (Schölkopf et al.): an anomaly detector trained on benign
// data only, solving
//
//	min_α  ½ ΣᵢΣⱼ αᵢαⱼk(xᵢ,xⱼ)
//	s.t.   0 ≤ αᵢ ≤ 1/(ν·n),   Σᵢ αᵢ = 1
//
// The solver works at LIBSVM's scale, 0 ≤ αᵢ ≤ 1 and Σᵢ αᵢ = ν·n, where
// the shared stopping tolerance means what it means for LIBSVM; the model
// divides α and ρ by ν·n, so decision values are on the scale above.
//
// The paper's related work (Heller et al.) uses this model for anomalous
// registry access; it is the natural "no mixed log available" baseline
// against which LEAPS's noise-pruned two-class training is motivated.

// OneClassParams configures one-class training.
type OneClassParams struct {
	// Nu bounds the fraction of training outliers (and support vectors);
	// in (0, 1].
	Nu float64
	// Kernel defaults to RBFKernel{Sigma2: 1}.
	Kernel Kernel
}

// OneClassModel is a trained one-class SVM.
type OneClassModel struct {
	m Model // coefficients αᵢ, bias −ρ
	// Iters reports solver iterations.
	Iters int
}

// TrainOneClass fits a one-class SVM on the (unlabeled) training vectors.
func TrainOneClass(x [][]float64, params OneClassParams) (*OneClassModel, error) {
	n := len(x)
	if n < 2 {
		return nil, errors.New("svm: one-class training needs at least 2 samples")
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return nil, fmt.Errorf("svm: sample %d has dimension %d, want %d", i, len(x[i]), dim)
		}
	}
	if params.Nu <= 0 || params.Nu > 1 {
		return nil, fmt.Errorf("svm: Nu %v out of (0,1]", params.Nu)
	}
	p := Params{Kernel: params.Kernel}.withDefaults()
	if err := checkKernel(p.Kernel); err != nil {
		return nil, err
	}

	// Reuse the two-class solver machinery with all labels +1: the pair
	// update then preserves Σα. The initial point must be feasible
	// (Σα = νn): LIBSVM's initialisation fills the first ⌊νn⌋ entries at
	// the bound 1 and the remainder fractionally.
	y := make([]float64, n)
	c := make([]float64, n)
	idx := make([]int, n)
	for i := range y {
		y[i] = 1
		c[i] = 1
		idx[i] = i
	}
	k := newGram(x, p.Kernel)
	s := newSolver(k, idx, y, c)
	scale := params.Nu * float64(n)
	budget := scale
	for i := 0; i < n && budget > 0; i++ {
		a := math.Min(1, budget)
		s.alpha[i] = a
		budget -= a
	}
	// Gradient of the one-class dual: G = Qα (no linear term), kept as
	// −G since every label is +1.
	for t := 0; t < n; t++ {
		s.yg[t] = 0
	}
	for i := 0; i < n; i++ {
		if s.alpha[i] == 0 {
			continue
		}
		ki := k.row(i)
		for t := 0; t < n; t++ {
			s.yg[t] += ki[t] * s.alpha[i]
		}
	}
	for t := range s.yg {
		s.yg[t] = -s.yg[t]
	}
	s.solve()

	var sv, coef []float64
	for i := 0; i < n; i++ {
		if a := s.alpha[i] / scale; a > 1e-12 {
			sv = append(sv, x[i]...)
			coef = append(coef, a)
		}
	}
	return &OneClassModel{m: *NewModel(p.Kernel, sv, len(x[0]), coef, s.rho/scale), Iters: s.iters}, nil
}

// NumSVs returns the support-vector count.
func (m *OneClassModel) NumSVs() int { return m.m.NumSVs() }

// Rho returns the decision offset.
func (m *OneClassModel) Rho() float64 { return -m.m.bias }

// Decision returns Σᵢ αᵢk(xᵢ,x) − ρ; negative means anomalous.
func (m *OneClassModel) Decision(x []float64) float64 { return m.m.Decision(x) }

// PredictInlier reports whether x lies inside the learned region.
func (m *OneClassModel) PredictInlier(x []float64) bool {
	return m.Decision(x) >= 0
}
