package svm

import (
	"math/rand"
	"testing"
)

func TestModelMarshalRoundTrip(t *testing.T) {
	kernels := []Kernel{
		LinearKernel{},
		RBFKernel{Sigma2: 2},
		PolyKernel{Degree: 2, Gamma: 1, Coef0: 1},
	}
	rng := rand.New(rand.NewSource(11))
	prob := separableProblem(rng, 25)
	for _, k := range kernels {
		t.Run(k.String(), func(t *testing.T) {
			m, err := Train(prob, Params{Lambda: 5, Kernel: k})
			if err != nil {
				t.Fatal(err)
			}
			data, err := m.MarshalBinary()
			if err != nil {
				t.Fatalf("MarshalBinary: %v", err)
			}
			var got Model
			if err := got.UnmarshalBinary(data); err != nil {
				t.Fatalf("UnmarshalBinary: %v", err)
			}
			if got.NumSVs() != m.NumSVs() || got.Bias() != m.Bias() {
				t.Errorf("round trip changed SVs/bias: (%d,%v) vs (%d,%v)",
					got.NumSVs(), got.Bias(), m.NumSVs(), m.Bias())
			}
			probe := []float64{1.4, 1.6}
			if got.Decision(probe) != m.Decision(probe) {
				t.Error("round trip changed the decision function")
			}
		})
	}
}

func TestModelUnmarshalRejectsGarbage(t *testing.T) {
	var m Model
	if err := m.UnmarshalBinary([]byte("junk")); err == nil {
		t.Error("garbage accepted")
	}
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Error("empty input accepted")
	}
}

// unsupportedKernel exercises the serialisation error path.
type unsupportedKernel struct{}

func (unsupportedKernel) Compute(a, b []float64) float64 { return 0 }
func (unsupportedKernel) String() string                 { return "unsupported" }

func TestModelMarshalUnsupportedKernel(t *testing.T) {
	m := &Model{kernel: unsupportedKernel{}}
	if _, err := m.MarshalBinary(); err == nil {
		t.Error("unsupported kernel marshalled")
	}
}

func TestScalerMarshalRoundTrip(t *testing.T) {
	s, err := FitScaler([][]float64{{0, 5}, {10, 15}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Scaler
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	in := []float64{5, 10}
	a, b := s.ApplyInto(nil, in), got.ApplyInto(nil, in)
	for d := range a {
		if a[d] != b[d] {
			t.Fatalf("round trip changed scaling: %v vs %v", a, b)
		}
	}
	if err := got.UnmarshalBinary([]byte("nope")); err == nil {
		t.Error("garbage scaler accepted")
	}
}

func TestDefaultGrid(t *testing.T) {
	g := DefaultGrid()
	if len(g.Lambdas) == 0 || len(g.Sigma2s) == 0 || g.Folds < 2 {
		t.Errorf("DefaultGrid() = %+v", g)
	}
}

func TestCrossValidateSkipsSingleClassFold(t *testing.T) {
	// Tiny, extremely imbalanced problem: some folds lose the minority
	// class entirely; CrossValidate must skip them, not fail.
	prob := Problem{
		X: [][]float64{{0}, {0.1}, {0.2}, {0.3}, {0.4}, {5}},
		Y: []float64{1, 1, 1, 1, 1, -1},
	}
	if _, err := CrossValidate(prob, Params{Lambda: 1, Kernel: LinearKernel{}}, 3, 1); err != nil {
		t.Fatalf("CrossValidate on imbalanced problem: %v", err)
	}
}
