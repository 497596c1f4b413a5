package svm

import "sync/atomic"

// fullMatrixLimit is the sample count up to which a gram is filled
// eagerly (4000² float64 ≈ 128 MB); larger ones fill rows on first use.
// A variable only so tests can run both modes.
var fullMatrixLimit = 4000

// gram is the kernel matrix K[i][j] = k(xᵢ,xⱼ) of one sample set under
// one kernel, read-only once built. Solvers over subsets of the samples
// read it through their sample-index lists, so model selection computes
// each kernel value once per σ² for every fold and λ, the final fit and
// its training decisions.
type gram struct {
	x      [][]float64
	kernel Kernel
	full   []float64                   // row-major, one evaluation per symmetric pair
	rows   []atomic.Pointer[[]float64] // lazy rows above fullMatrixLimit; nil when eager
}

// newGram builds the kernel matrix over x, which it aliases.
func newGram(x [][]float64, k Kernel) *gram {
	n := len(x)
	g := &gram{x: x, kernel: k}
	if n > fullMatrixLimit {
		g.rows = make([]atomic.Pointer[[]float64], n)
		return g
	}
	g.full = make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := k.Compute(x[i], x[j])
			g.full[i*n+j] = v
			g.full[j*n+i] = v
		}
	}
	mKernelEvals.Add(uint64(n * (n + 1) / 2))
	return g
}

// row returns K's row i. A lazy row is computed by its first callers,
// identically, and every caller gets the first one stored.
func (g *gram) row(i int) []float64 {
	if g.rows == nil {
		n := len(g.x)
		return g.full[i*n : (i+1)*n : (i+1)*n]
	}
	if r := g.rows[i].Load(); r != nil {
		return *r
	}
	row := make([]float64, len(g.x))
	for j := range g.x {
		row[j] = g.kernel.Compute(g.x[i], g.x[j])
	}
	mKernelEvals.Add(uint64(len(row)))
	if !g.rows[i].CompareAndSwap(nil, &row) {
		return *g.rows[i].Load()
	}
	return row
}
