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

// ApplyInto appends the scaled v to dst, reusing dst's capacity (pass
// dst[:0] to recycle a buffer), and returns the scaled vector. Values
// outside the learned range are not clamped (they simply fall outside
// [0,1], which is fine for kernels). Constant columns map to 0.
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

// Dim returns the dimensionality the scaler was fitted on.
func (s *Scaler) Dim() int { return len(s.min) }

// Check validates a decoded scaler for dim-dimensional inputs: dim
// columns, every bound finite.
func (s *Scaler) Check(dim int) error {
	if len(s.min) != dim {
		return fmt.Errorf("svm: scaler has dimension %d, want %d", len(s.min), dim)
	}
	for d := range s.min {
		if !finite(s.min[d]) || !finite(s.max[d]) {
			return fmt.Errorf("svm: scaler column %d has bounds [%v, %v]", d, s.min[d], s.max[d])
		}
	}
	return nil
}
