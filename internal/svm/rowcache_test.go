package svm

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSharedCrossValidateMatchesUncached pins the shared-cache fold
// solvers to the self-contained path: identical accuracy, bit for bit,
// for every kernel of the default grid.
func TestSharedCrossValidateMatchesUncached(t *testing.T) {
	prob := noisyProblem(rand.New(rand.NewSource(17)), 40)
	for _, s2 := range DefaultGrid().Sigma2s {
		params := Params{Lambda: 2, Kernel: RBFKernel{Sigma2: s2}}
		want, err := CrossValidate(prob, params, 5, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, err := crossValidateShared(prob, params, 5, 7, NewRowCache(prob.X, params.Kernel))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("σ²=%g: shared %v != uncached %v", s2, got, want)
		}
	}
}

// TestGridSearchMatchesUncachedSweep reduces the grid by brute force
// over the uncached CrossValidate and requires GridSearch (which shares
// a row cache per σ² across the λ axis and folds) to select the same
// point at the same accuracy.
func TestGridSearchMatchesUncachedSweep(t *testing.T) {
	prob := noisyProblem(rand.New(rand.NewSource(23)), 35)
	grid := DefaultGrid()
	grid.Seed = 99
	grid.Parallel = 1

	var wantBest Params
	wantAcc := -1.0
	for _, l := range grid.Lambdas {
		for _, s2 := range grid.Sigma2s {
			p := Params{Lambda: l, Kernel: RBFKernel{Sigma2: s2}}
			acc, err := CrossValidate(prob, p, grid.Folds, grid.Seed)
			if err != nil {
				t.Fatal(err)
			}
			if acc > wantAcc {
				wantBest, wantAcc = p, acc
			}
		}
	}
	best, acc, err := GridSearch(prob, grid)
	if err != nil {
		t.Fatal(err)
	}
	if best != wantBest || acc != wantAcc {
		t.Errorf("GridSearch selected (%+v, %v), uncached sweep selected (%+v, %v)",
			best, acc, wantBest, wantAcc)
	}
}

// TestRowCacheConcurrent hammers one cache from many goroutines (run
// under -race by make race) and checks every caller sees the canonical
// row: same backing array, same values as a direct kernel evaluation.
func TestRowCacheConcurrent(t *testing.T) {
	prob := noisyProblem(rand.New(rand.NewSource(31)), 64)
	kernel := RBFKernel{Sigma2: 4}
	cache := NewRowCache(prob.X, kernel)

	const workers = 8
	rows := make([][][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows[w] = make([][]float64, cache.Len())
			for pass := 0; pass < 3; pass++ {
				for i := 0; i < cache.Len(); i++ {
					rows[w][(i+w)%cache.Len()] = cache.Row((i + w) % cache.Len())
				}
			}
		}(w)
	}
	wg.Wait()

	for i := 0; i < cache.Len(); i++ {
		canon := rows[0][i]
		for w := 1; w < workers; w++ {
			if &rows[w][i][0] != &canon[0] {
				t.Fatalf("row %d: worker %d got a non-canonical backing array", i, w)
			}
		}
		for j := range canon {
			if want := kernel.Compute(prob.X[i], prob.X[j]); canon[j] != want {
				t.Fatalf("row %d[%d] = %v, want %v", i, j, canon[j], want)
			}
		}
	}
}

// TestApplyIntoMatchesApply checks the scratch scaler against a fresh
// allocation: scaling into a recycled buffer gives the same vector as
// scaling into a new slice, and reuses the buffer once it is large enough.
func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	prob := noisyProblem(rng, 25)
	sc, err := FitScaler(prob.X)
	if err != nil {
		t.Fatal(err)
	}
	var buf []float64
	for i, v := range prob.X {
		want := sc.ApplyInto(nil, v)
		prev := buf
		buf = sc.ApplyInto(buf[:0], v)
		if len(buf) != len(want) {
			t.Fatalf("vector %d: ApplyInto returned %d dims, want %d", i, len(buf), len(want))
		}
		if i > 0 && &buf[0] != &prev[0] {
			t.Fatalf("vector %d: ApplyInto reallocated despite sufficient capacity", i)
		}
		for d := range want {
			if buf[d] != want[d] {
				t.Fatalf("vector %d dim %d: %v != %v", i, d, buf[d], want[d])
			}
		}
	}
}
