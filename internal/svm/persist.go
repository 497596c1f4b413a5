package svm

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Serialisation snapshots. Kernels are encoded structurally (kind +
// parameters) so models round-trip without registering interface types.

type kernelSnapshot struct {
	Kind   string
	Sigma2 float64
	Degree int
	Gamma  float64
	Coef0  float64
}

func snapshotKernel(k Kernel) (kernelSnapshot, error) {
	switch kk := k.(type) {
	case LinearKernel:
		return kernelSnapshot{Kind: "linear"}, nil
	case RBFKernel:
		return kernelSnapshot{Kind: "rbf", Sigma2: kk.Sigma2}, nil
	case PolyKernel:
		return kernelSnapshot{Kind: "poly", Degree: kk.Degree, Gamma: kk.Gamma, Coef0: kk.Coef0}, nil
	default:
		return kernelSnapshot{}, fmt.Errorf("svm: kernel %T is not serialisable", k)
	}
}

func (s kernelSnapshot) kernel() (Kernel, error) {
	switch s.Kind {
	case "linear":
		return LinearKernel{}, nil
	case "rbf":
		return RBFKernel{Sigma2: s.Sigma2}, nil
	case "poly":
		return PolyKernel{Degree: s.Degree, Gamma: s.Gamma, Coef0: s.Coef0}, nil
	default:
		return nil, fmt.Errorf("svm: unknown kernel kind %q", s.Kind)
	}
}

type modelSnapshot struct {
	Kernel     kernelSnapshot
	SVX        [][]float64
	SVCoef     []float64
	Bias       float64
	Iters      int
	BoundedSVs int
}

// MarshalBinary encodes the model for persistence.
func (m *Model) MarshalBinary() ([]byte, error) {
	ks, err := snapshotKernel(m.kernel)
	if err != nil {
		return nil, err
	}
	snap := modelSnapshot{
		Kernel:     ks,
		SVX:        m.svX,
		SVCoef:     m.svCoef,
		Bias:       m.bias,
		Iters:      m.Iters,
		BoundedSVs: m.BoundedSVs,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("svm: encoding model: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a model produced by MarshalBinary.
func (m *Model) UnmarshalBinary(data []byte) error {
	var snap modelSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("svm: decoding model: %w", err)
	}
	k, err := snap.Kernel.kernel()
	if err != nil {
		return err
	}
	if len(snap.SVX) != len(snap.SVCoef) {
		return fmt.Errorf("svm: model has %d support vectors but %d coefficients",
			len(snap.SVX), len(snap.SVCoef))
	}
	m.kernel = k
	m.setSVs(snap.SVX, snap.SVCoef)
	m.bias = snap.Bias
	m.Iters = snap.Iters
	m.BoundedSVs = snap.BoundedSVs
	return nil
}

type scalerSnapshot struct {
	Min, Max []float64
}

// MarshalBinary encodes the scaler for persistence.
func (s *Scaler) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(scalerSnapshot{Min: s.min, Max: s.max}); err != nil {
		return nil, fmt.Errorf("svm: encoding scaler: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a scaler produced by MarshalBinary.
func (s *Scaler) UnmarshalBinary(data []byte) error {
	var snap scalerSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("svm: decoding scaler: %w", err)
	}
	if len(snap.Min) != len(snap.Max) {
		return fmt.Errorf("svm: scaler min/max lengths differ: %d vs %d", len(snap.Min), len(snap.Max))
	}
	s.min, s.max = snap.Min, snap.Max
	return nil
}
