package svm

import (
	"math"
	"math/rand"
	"testing"
)

// kernelDecision is Decision through the Kernel.Compute loop, the
// reference the RBF branch must match bit for bit.
func kernelDecision(m *Model, x []float64) float64 {
	generic := *m
	generic.sigma2 = 0
	return generic.Decision(x)
}

// randomRBFModel draws an RBF model of n support vectors in dim
// dimensions. Every fifth coordinate is +0 or −0, so signed zeros reach
// both the support vectors and the differences.
func randomRBFModel(rng *rand.Rand, n, dim int) *Model {
	rows := make([][]float64, n)
	coef := make([]float64, n)
	for i := range rows {
		rows[i] = randomPoint(rng, dim)
		coef[i] = rng.NormFloat64() * 4
	}
	m := &Model{kernel: RBFKernel{Sigma2: []float64{0.3, 1.7, 6.1}[rng.Intn(3)]}, bias: rng.NormFloat64()}
	m.setSVs(rows, coef)
	return m
}

func randomPoint(rng *rand.Rand, dim int) []float64 {
	x := make([]float64, dim)
	for k := range x {
		switch rng.Intn(5) {
		case 0:
			x[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			x[k] = rng.Float64()*2 - 0.5
		}
	}
	return x
}

// decisionInputs are the points a model is probed at: random points, a
// copy of a support vector (distance 0), a point so far away that every
// kernel term underflows to 0, and the all-±0 points.
func decisionInputs(rng *rand.Rand, m *Model, dim int) [][]float64 {
	xs := [][]float64{randomPoint(rng, dim), randomPoint(rng, dim)}
	far, pz, nz := make([]float64, dim), make([]float64, dim), make([]float64, dim)
	for k := range far {
		far[k] = 1e3
		nz[k] = math.Copysign(0, -1)
	}
	xs = append(xs, far, pz, nz)
	if m.NumSVs() > 0 {
		xs = append(xs, append([]float64(nil), m.svX[rng.Intn(m.NumSVs())]...))
	}
	return xs
}

// checkDecision fails unless m's Decision equals the Kernel.Compute loop
// bit for bit at every x.
func checkDecision(t *testing.T, name string, m *Model, xs [][]float64) {
	t.Helper()
	for i, x := range xs {
		got, want := m.Decision(x), kernelDecision(m, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s, input %d: Decision %v (%#x), Kernel.Compute loop %v (%#x)",
				name, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestDecisionMatchesKernel holds the RBF branch over the flat support
// vector matrix to the Kernel.Compute loop bit for bit: random models of
// 0 to 200 support vectors (every remainder of the four-wide blocks) in
// 1 to 31 dimensions, a one-class model, and models round-tripped
// through MarshalBinary.
func TestDecisionMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, n := range []int{0, 1, 3, 4, 5, 58, 61, 200} {
		for _, dim := range []int{1, 2, 30, 31} {
			m := randomRBFModel(rng, n, dim)
			if m.sigma2 == 0 {
				t.Fatalf("n=%d dim=%d: an RBF model does not take the RBF branch", n, dim)
			}
			xs := decisionInputs(rng, m, dim)
			checkDecision(t, "random model", m, xs)

			data, err := m.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var loaded Model
			if err := loaded.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			checkDecision(t, "round-tripped model", &loaded, xs)
			for _, x := range xs {
				if math.Float64bits(loaded.Decision(x)) != math.Float64bits(m.Decision(x)) {
					t.Fatalf("n=%d dim=%d: the round trip changed a decision", n, dim)
				}
			}
		}
	}

	var x [][]float64
	for i := 0; i < 60; i++ {
		x = append(x, randomPoint(rng, 30))
	}
	oc, err := TrainOneClass(x, OneClassParams{Nu: 0.3, Kernel: RBFKernel{Sigma2: 1.7}})
	if err != nil {
		t.Fatal(err)
	}
	checkDecision(t, "one-class model", &oc.m, decisionInputs(rng, &oc.m, 30))
}

// FuzzDecision checks the same invariant on models drawn from the
// input: a seed, the support-vector count and width, σ², and one
// coordinate value written into both a support vector and the probe.
func FuzzDecision(f *testing.F) {
	f.Add(int64(1), uint8(58), uint8(30), 1.7, 0.5)
	f.Add(int64(2), uint8(5), uint8(1), 0.3, math.Copysign(0, -1))
	f.Add(int64(3), uint8(4), uint8(31), 6.1, 1e300)
	f.Add(int64(4), uint8(0), uint8(2), 1.0, 0.0)
	f.Add(int64(5), uint8(61), uint8(7), 1e-300, -3.5)
	f.Fuzz(func(t *testing.T, seed int64, n, dim uint8, sigma2, coord float64) {
		if sigma2 == 0 {
			sigma2 = 1
		}
		rng := rand.New(rand.NewSource(seed))
		d := int(dim%40) + 1
		rows := make([][]float64, int(n))
		coef := make([]float64, int(n))
		for i := range rows {
			rows[i] = randomPoint(rng, d)
			coef[i] = rng.NormFloat64()
		}
		if len(rows) > 0 {
			rows[rng.Intn(len(rows))][rng.Intn(d)] = coord
		}
		m := &Model{kernel: RBFKernel{Sigma2: sigma2}, bias: rng.NormFloat64()}
		m.setSVs(rows, coef)
		xs := decisionInputs(rng, m, d)
		probe := randomPoint(rng, d)
		probe[rng.Intn(d)] = coord
		checkDecision(t, "fuzzed model", m, append(xs, probe))
	})
}
