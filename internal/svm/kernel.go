// Package svm implements the paper's Supervised Statistical Learning
// Module: a from-scratch Weighted Support Vector Machine.
//
// The optimisation problem is the weighted C-SVM dual of Eqn. (4):
//
//	min_α  -Σᵢ αᵢ + ½ ΣᵢΣⱼ αᵢαⱼyᵢyⱼk(xᵢ,xⱼ)
//	s.t.   0 ≤ αᵢ ≤ λ·cᵢ,   Σᵢ αᵢyᵢ = 0
//
// which differs from the ordinary C-SVM dual only in the per-sample upper
// bound λ·cᵢ, where cᵢ ∈ [0,1] is the confidence weight assigned to sample
// i (1 for benign training data; CFG-derived for mixed training data). It
// is solved with sequential minimal optimisation (SMO) using
// maximal-violating-pair working-set selection — the algorithm family
// LIBSVM, which the paper builds on, uses.
package svm

import (
	"fmt"
	"math"
)

// Kernel computes inner products in feature space.
//
// Training assumes symmetry: Compute(a, b) and Compute(b, a) must be
// bitwise equal, because a kernel matrix evaluates each pair once and
// reads it for both orders. The linear, RBF and polynomial kernels meet
// this exactly: products commute and (a−b)² = (b−a)².
type Kernel interface {
	// Compute returns k(a, b). Implementations may assume len(a)==len(b).
	Compute(a, b []float64) float64
	// String describes the kernel and its parameters.
	String() string
}

// checkKernel rejects kernel parameters that train on NaN or ±Inf: an
// RBF σ² must be finite and positive (σ² = 0 makes k(x,x) = exp(−0/0)),
// and a polynomial kernel needs finite γ and coef0 and a degree of at
// least 1. Other kernels carry no checkable parameters.
func checkKernel(k Kernel) error {
	switch kk := k.(type) {
	case RBFKernel:
		if !finitePositive(kk.Sigma2) {
			return fmt.Errorf("svm: RBF σ² %v must be finite and positive", kk.Sigma2)
		}
	case PolyKernel:
		if kk.Degree < 1 || !finite(kk.Gamma) || !finite(kk.Coef0) {
			return fmt.Errorf("svm: polynomial kernel %v needs degree ≥ 1 and finite γ and coef0", kk)
		}
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finitePositive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

// LinearKernel is k(a,b) = a·b.
type LinearKernel struct{}

var _ Kernel = LinearKernel{}

// Compute returns the dot product of a and b.
func (LinearKernel) Compute(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// String returns the kernel description.
func (LinearKernel) String() string { return "linear" }

// RBFKernel is the paper's Gaussian kernel k(a,b) = exp(-‖a-b‖²/σ²).
type RBFKernel struct {
	// Sigma2 is the radius parameter σ².
	Sigma2 float64
}

var _ Kernel = RBFKernel{}

// Compute returns the Gaussian similarity of a and b.
func (k RBFKernel) Compute(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-d2 / k.Sigma2)
}

// String returns the kernel description.
func (k RBFKernel) String() string { return fmt.Sprintf("rbf(σ²=%g)", k.Sigma2) }

// PolyKernel is k(a,b) = (γ·a·b + coef0)^degree.
type PolyKernel struct {
	Degree int
	Gamma  float64
	Coef0  float64
}

var _ Kernel = PolyKernel{}

// Compute returns the polynomial similarity of a and b.
func (k PolyKernel) Compute(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return math.Pow(k.Gamma*s+k.Coef0, float64(k.Degree))
}

// String returns the kernel description.
func (k PolyKernel) String() string {
	return fmt.Sprintf("poly(d=%d,γ=%g,c0=%g)", k.Degree, k.Gamma, k.Coef0)
}
