package hmm

import (
	"math"
	"math/rand"
	"testing"
)

func TestTrainValidation(t *testing.T) {
	if _, err := Train([]int{0, 1}, 0, Config{}); err == nil {
		t.Error("numSymbols=0 accepted")
	}
	if _, err := Train([]int{0}, 2, Config{}); err == nil {
		t.Error("length-1 sequence accepted")
	}
	if _, err := Train([]int{0, 5}, 2, Config{}); err == nil {
		t.Error("out-of-range symbol accepted")
	}
	if _, err := Train([]int{0, -1}, 2, Config{}); err == nil {
		t.Error("negative symbol accepted")
	}
}

func TestModelIsStochasticAfterTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := make([]int, 400)
	for i := range seq {
		seq[i] = rng.Intn(5)
	}
	m, err := Train(seq, 5, Config{States: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range m.Pi {
		if p < 0 {
			t.Fatalf("negative Pi entry %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("Pi sums to %v", sum)
	}
	for i := 0; i < m.NumStates(); i++ {
		var sa, sb float64
		for _, p := range m.A[i] {
			if p <= 0 {
				t.Fatalf("non-positive transition %v", p)
			}
			sa += p
		}
		for _, p := range m.B[i] {
			if p <= 0 {
				t.Fatalf("non-positive emission %v", p)
			}
			sb += p
		}
		if math.Abs(sa-1) > 1e-6 || math.Abs(sb-1) > 1e-6 {
			t.Errorf("state %d rows sum to %v / %v", i, sa, sb)
		}
	}
	if m.NumStates() != 3 || m.NumSymbols() != 5 {
		t.Errorf("dims = (%d,%d)", m.NumStates(), m.NumSymbols())
	}
}

func TestTrainingImprovesLikelihood(t *testing.T) {
	// A strongly structured sequence: alternating symbol blocks.
	var seq []int
	for i := 0; i < 50; i++ {
		for j := 0; j < 5; j++ {
			seq = append(seq, 0)
		}
		for j := 0; j < 5; j++ {
			seq = append(seq, 1)
		}
	}
	trained, err := Train(seq, 2, Config{States: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	untrained := randomModel(2, 2, rand.New(rand.NewSource(3)))
	llT, err := trained.LogLikelihood(seq)
	if err != nil {
		t.Fatal(err)
	}
	llU, err := untrained.LogLikelihood(seq)
	if err != nil {
		t.Fatal(err)
	}
	if llT <= llU {
		t.Errorf("trained LL %v not above untrained %v", llT, llU)
	}
}

func TestLogLikelihoodValidation(t *testing.T) {
	m := randomModel(2, 3, rand.New(rand.NewSource(4)))
	if _, err := m.LogLikelihood(nil); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := m.LogLikelihood([]int{7}); err == nil {
		t.Error("out-of-range symbol accepted")
	}
}

// Two distinguishable sources: benign emits symbols {0,1,2} in runs,
// malicious emits {3,4} in runs with occasional overlap. The classifier
// should separate held-out windows.
func TestClassifierSeparatesSources(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gen := func(symbols []int, n int) []int {
		out := make([]int, 0, n)
		for len(out) < n {
			s := symbols[rng.Intn(len(symbols))]
			run := 2 + rng.Intn(4)
			for j := 0; j < run && len(out) < n; j++ {
				out = append(out, s)
			}
		}
		return out
	}
	benignTrain := gen([]int{0, 1, 2}, 800)
	// The "mixed" sequence interleaves benign and malicious runs.
	var mixedTrain []int
	for len(mixedTrain) < 800 {
		if rng.Intn(2) == 0 {
			mixedTrain = append(mixedTrain, gen([]int{0, 1, 2}, 20)...)
		} else {
			mixedTrain = append(mixedTrain, gen([]int{3, 4}, 20)...)
		}
	}
	clf, err := TrainClassifier(benignTrain, mixedTrain, 5, Config{States: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		b, err := clf.PredictBenign(gen([]int{0, 1, 2}, 20))
		if err != nil {
			t.Fatal(err)
		}
		if b {
			correct++
		}
		b, err = clf.PredictBenign(gen([]int{3, 4}, 20))
		if err != nil {
			t.Fatal(err)
		}
		if !b {
			correct++
		}
	}
	if acc := float64(correct) / float64(2*trials); acc < 0.85 {
		t.Errorf("classifier accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seq := make([]int, 300)
	for i := range seq {
		seq[i] = rng.Intn(4)
	}
	a, err := Train(seq, 4, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(seq, 4, Config{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	llA, _ := a.LogLikelihood(seq)
	llB, _ := b.LogLikelihood(seq)
	if llA != llB {
		t.Errorf("same seed trained different models: %v vs %v", llA, llB)
	}
}
