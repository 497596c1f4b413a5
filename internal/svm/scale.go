package svm

import (
	"errors"
	"fmt"
)

// Scaler linearly maps each feature column to [0, 1] using ranges learned
// from training data — LIBSVM's standard preprocessing, needed for the
// Gaussian kernel to weigh the dimensions comparably.
type Scaler struct {
	min []float64
	max []float64
}

// FitScaler learns per-column ranges from the given vectors.
func FitScaler(x [][]float64) (*Scaler, error) {
	if len(x) == 0 {
		return nil, errors.New("svm: no vectors to fit scaler on")
	}
	dim := len(x[0])
	s := &Scaler{min: make([]float64, dim), max: make([]float64, dim)}
	copy(s.min, x[0])
	copy(s.max, x[0])
	for _, v := range x[1:] {
		if len(v) != dim {
			return nil, fmt.Errorf("svm: vector of dimension %d, want %d", len(v), dim)
		}
		for d, f := range v {
			if f < s.min[d] {
				s.min[d] = f
			}
			if f > s.max[d] {
				s.max[d] = f
			}
		}
	}
	return s, nil
}

// Apply returns a scaled copy of v. Values outside the learned range are
// clamped to the range's projection behaviour (they simply fall outside
// [0,1], which is fine for kernels). Constant columns map to 0.
func (s *Scaler) Apply(v []float64) []float64 {
	return s.ApplyInto(make([]float64, 0, len(v)), v)
}

// ApplyInto scales v into dst, reusing dst's capacity (pass dst[:0] to
// recycle a buffer); it returns the scaled vector. The hot-path
// counterpart of Apply.
func (s *Scaler) ApplyInto(dst, v []float64) []float64 {
	for d := range v {
		span := s.max[d] - s.min[d]
		if span == 0 {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, (v[d]-s.min[d])/span)
	}
	return dst
}

// ApplyAll scales every vector.
func (s *Scaler) ApplyAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, v := range x {
		out[i] = s.Apply(v)
	}
	return out
}

// Dim returns the dimensionality the scaler was fitted on.
func (s *Scaler) Dim() int { return len(s.min) }
