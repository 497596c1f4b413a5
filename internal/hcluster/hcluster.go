// Package hcluster implements agglomerative hierarchical clustering over a
// precomputed pairwise distance matrix, equivalent to the SciPy
// cluster.hierarchy routines the paper uses in its Data Preprocessing
// Module, under the paper's linkage criterion, UPGMA (average linkage):
// the distance between two clusters is the mean distance between all
// pairs of their elements.
//
// Cluster merging uses the Lance-Williams update for average linkage, a
// recurrence on the evolving distance matrix.
package hcluster

import (
	"errors"
	"fmt"
	"math"
)

// DistMatrix is a symmetric pairwise distance matrix over n observations,
// stored in condensed form (upper triangle).
type DistMatrix struct {
	n    int
	data []float64
}

// NewDistMatrix allocates an n×n zero matrix.
func NewDistMatrix(n int) (*DistMatrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("hcluster: matrix size %d must be positive", n)
	}
	return &DistMatrix{n: n, data: make([]float64, n*(n-1)/2)}, nil
}

// idx maps (i, j), i != j, to the condensed offset.
func (dm *DistMatrix) idx(i, j int) int {
	if i > j {
		i, j = j, i
	}
	// Offset of row i in the condensed upper triangle, plus column.
	return i*(2*dm.n-i-1)/2 + (j - i - 1)
}

// Set assigns the distance between observations i and j.
func (dm *DistMatrix) Set(i, j int, d float64) {
	if i == j {
		return
	}
	dm.data[dm.idx(i, j)] = d
}

// Get returns the distance between observations i and j.
func (dm *DistMatrix) Get(i, j int) float64 {
	if i == j {
		return 0
	}
	return dm.data[dm.idx(i, j)]
}

// Validate checks symmetry invariants implicitly held by the condensed
// storage and rejects negative or non-finite entries.
func (dm *DistMatrix) Validate() error {
	for _, d := range dm.data {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("hcluster: invalid distance %v", d)
		}
	}
	return nil
}

// Merge is one agglomeration step: clusters A and B (ids as in SciPy: the
// first n ids are singleton observations, id n+k is the cluster produced
// by step k) joined at the given distance into a cluster of Size
// observations.
type Merge struct {
	A, B     int
	Distance float64
	Size     int
}

// Dendrogram is the full agglomeration tree over n observations.
type Dendrogram struct {
	n      int
	merges []Merge
}

// Merges returns a copy of the merge steps in order.
func (d *Dendrogram) Merges() []Merge {
	out := make([]Merge, len(d.merges))
	copy(out, d.merges)
	return out
}

// Cluster performs UPGMA agglomerative clustering of the observations
// described by the distance matrix.
func Cluster(dm *DistMatrix) (*Dendrogram, error) {
	if dm == nil {
		return nil, errors.New("hcluster: nil distance matrix")
	}
	if err := dm.Validate(); err != nil {
		return nil, err
	}
	n := dm.n
	dend := &Dendrogram{n: n}
	if n == 1 {
		return dend, nil
	}

	// Working distance matrix over active clusters, full (not condensed)
	// for simple updates. Cluster slots reuse observation indices; a merge
	// writes the new cluster into the lower slot and deactivates the
	// higher one.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = dm.Get(i, j)
		}
	}
	active := make([]bool, n)
	size := make([]int, n)
	id := make([]int, n) // dendrogram id currently held by each slot
	for i := 0; i < n; i++ {
		active[i], size[i], id[i] = true, 1, i
	}

	for step := 0; step < n-1; step++ {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			for j := i + 1; j < n; j++ {
				if !active[j] {
					continue
				}
				if dist[i][j] < best {
					bi, bj, best = i, j, dist[i][j]
				}
			}
		}
		na, nb := float64(size[bi]), float64(size[bj])
		dend.merges = append(dend.merges, Merge{
			A: id[bi], B: id[bj], Distance: best, Size: size[bi] + size[bj],
		})
		// Lance-Williams update of distances from the merged cluster to
		// every other active cluster k, for average linkage:
		//   d(ab,k) = (na·d(a,k) + nb·d(b,k)) / (na + nb)
		for k := 0; k < n; k++ {
			if !active[k] || k == bi || k == bj {
				continue
			}
			d := (na*dist[bi][k] + nb*dist[bj][k]) / (na + nb)
			dist[bi][k], dist[k][bi] = d, d
		}
		active[bj] = false
		size[bi] += size[bj]
		id[bi] = n + step
	}
	return dend, nil
}

// CutDistance flattens the dendrogram at threshold t: every merge with
// distance <= t is applied. It returns one cluster label per observation,
// with labels numbered 0..k-1 in order of each cluster's smallest
// observation index.
func (d *Dendrogram) CutDistance(t float64) []int {
	apply := 0
	for apply < len(d.merges) && d.merges[apply].Distance <= t {
		apply++
	}
	return d.labelsAfter(apply)
}

// labelsAfter applies the first `apply` merges with union-find and labels
// the resulting components.
func (d *Dendrogram) labelsAfter(apply int) []int {
	// parent over ids 0..n+apply-1; id n+k is merge step k.
	parent := make([]int, d.n+apply)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for s := 0; s < apply; s++ {
		m := d.merges[s]
		newID := d.n + s
		parent[find(m.A)] = newID
		parent[find(m.B)] = newID
	}
	labels := make([]int, d.n)
	next := 0
	rootLabel := make(map[int]int)
	for i := 0; i < d.n; i++ {
		r := find(i)
		l, ok := rootLabel[r]
		if !ok {
			l = next
			rootLabel[r] = l
			next++
		}
		labels[i] = l
	}
	return labels
}
