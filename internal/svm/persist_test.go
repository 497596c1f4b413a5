package svm

import (
	"math/rand"
	"slices"
	"testing"
)

// TestModelMarshalRoundTrip rebuilds trained models of every kernel kind
// from the parts a model bundle stores, as the bundle decoder does with
// NewModel, and requires the same support vectors, bias and decisions.
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
			sv, dim := m.SupportVectors()
			got := NewModel(m.Kernel(), slices.Clone(sv), dim, slices.Clone(m.Coef()), m.Bias())
			if got.NumSVs() != m.NumSVs() || got.Bias() != m.Bias() || dim != 2 {
				t.Errorf("round trip changed SVs/bias: (%d,%v) vs (%d,%v), dimension %d",
					got.NumSVs(), got.Bias(), m.NumSVs(), m.Bias(), dim)
			}
			if err := got.Check(2); err != nil {
				t.Errorf("rebuilt model fails Check: %v", err)
			}
			probe := []float64{1.4, 1.6}
			if got.Decision(probe) != m.Decision(probe) {
				t.Error("round trip changed the decision function")
			}
		})
	}
}

// TestModelUnmarshalRejectsGarbage rebuilds models from parts no trained
// model has, as a decoder could hand them to NewModel: each must fail
// Check, which the bundle decoder runs before anything scores.
func TestModelUnmarshalRejectsGarbage(t *testing.T) {
	k := RBFKernel{Sigma2: 2}
	for name, m := range map[string]*Model{
		"matrix shorter than its rows": NewModel(k, make([]float64, 5), 2, make([]float64, 3), 0),
		"matrix longer than its rows":  NewModel(k, make([]float64, 7), 2, make([]float64, 3), 0),
		"rows of another width":        NewModel(k, make([]float64, 9), 3, make([]float64, 3), 0),
		"no coefficients for its rows": NewModel(k, make([]float64, 6), 2, nil, 0),
	} {
		if err := m.Check(2); err == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
	if err := NewModel(k, make([]float64, 6), 2, make([]float64, 3), 0).Check(2); err != nil {
		t.Errorf("consistent parts fail Check: %v", err)
	}
}

func TestScalerMarshalRoundTrip(t *testing.T) {
	s, err := FitScaler([][]float64{{0, 5}, {10, 15}})
	if err != nil {
		t.Fatal(err)
	}
	got := NewScaler(s.Bounds())
	in := []float64{5, 10}
	a, b := s.ApplyInto(nil, in), got.ApplyInto(nil, in)
	if !slices.Equal(a, b) {
		t.Fatalf("round trip changed scaling: %v vs %v", a, b)
	}
	min, _ := s.Bounds()
	if err := NewScaler(min, min[:1]).Check(2); err == nil {
		t.Error("scaler with bounds of different widths passed Check")
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
