package svm

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainOneClassValidation(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}, {0, 1}}
	if _, err := TrainOneClass(x[:1], OneClassParams{Nu: 0.5}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := TrainOneClass(x, OneClassParams{Nu: 0}); err == nil {
		t.Error("Nu=0 accepted")
	}
	if _, err := TrainOneClass(x, OneClassParams{Nu: 1.5}); err == nil {
		t.Error("Nu>1 accepted")
	}
	if _, err := TrainOneClass([][]float64{{0}, {1, 2}}, OneClassParams{Nu: 0.5}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestOneClassSeparatesCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var x [][]float64
	for i := 0; i < 120; i++ {
		x = append(x, []float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4})
	}
	m, err := TrainOneClass(x, OneClassParams{Nu: 0.1, Kernel: RBFKernel{Sigma2: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.m.NumSVs(); n == 0 || n == len(x) {
		t.Errorf("NumSVs = %d of %d, want a sparse subset", n, len(x))
	}
	// Most training-like points are inliers; far points are outliers.
	inliers, outliers := 0, 0
	const trials = 200
	for i := 0; i < trials; i++ {
		if m.PredictInlier([]float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4}) {
			inliers++
		}
		if !m.PredictInlier([]float64{4 + rng.NormFloat64()*0.4, 4 + rng.NormFloat64()*0.4}) {
			outliers++
		}
	}
	if frac := float64(inliers) / trials; frac < 0.8 {
		t.Errorf("inlier acceptance = %.2f, want >= 0.8", frac)
	}
	if frac := float64(outliers) / trials; frac < 0.95 {
		t.Errorf("outlier rejection = %.2f, want >= 0.95", frac)
	}
}

// TestOneClassNuControlsOutlierFraction checks the ν-property: roughly a
// ν fraction of training points fall outside the learned region.
func TestOneClassNuControlsOutlierFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var x [][]float64
	for i := 0; i < 200; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	for _, nu := range []float64{0.05, 0.2, 0.5} {
		m, err := TrainOneClass(x, OneClassParams{Nu: nu, Kernel: RBFKernel{Sigma2: 2}})
		if err != nil {
			t.Fatal(err)
		}
		rejected := 0
		for _, v := range x {
			if !m.PredictInlier(v) {
				rejected++
			}
		}
		frac := float64(rejected) / float64(len(x))
		if math.Abs(frac-nu) > nu*0.6+0.05 {
			t.Errorf("ν=%.2f rejected fraction %.3f, want near ν", nu, frac)
		}
	}
}

func TestOneClassDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var x [][]float64
	for i := 0; i < 60; i++ {
		x = append(x, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	a, err := TrainOneClass(x, OneClassParams{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainOneClass(x, OneClassParams{Nu: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if a.m.bias != b.m.bias || a.m.NumSVs() != b.m.NumSVs() {
		t.Error("one-class training not deterministic")
	}
}
