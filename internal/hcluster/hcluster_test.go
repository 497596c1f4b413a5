package hcluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func matrixFromPoints(t *testing.T, pts []float64) *DistMatrix {
	t.Helper()
	dm, err := NewDistMatrix(len(pts))
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			dm.Set(i, j, math.Abs(pts[i]-pts[j]))
		}
	}
	return dm
}

func TestNewDistMatrixValidation(t *testing.T) {
	if _, err := NewDistMatrix(0); err == nil {
		t.Error("NewDistMatrix(0) succeeded")
	}
	if _, err := NewDistMatrix(-2); err == nil {
		t.Error("NewDistMatrix(-2) succeeded")
	}
}

func TestDistMatrixSymmetry(t *testing.T) {
	dm, err := NewDistMatrix(4)
	if err != nil {
		t.Fatal(err)
	}
	dm.Set(1, 3, 0.5)
	if got := dm.Get(3, 1); got != 0.5 {
		t.Errorf("Get(3,1) = %v, want 0.5", got)
	}
	if got := dm.Get(2, 2); got != 0 {
		t.Errorf("Get(2,2) = %v, want 0", got)
	}
	dm.Set(2, 2, 9) // must be ignored
	if got := dm.Get(2, 2); got != 0 {
		t.Errorf("diagonal mutated: %v", got)
	}
}

func TestDistMatrixValidate(t *testing.T) {
	dm, _ := NewDistMatrix(3)
	dm.Set(0, 1, math.NaN())
	if err := dm.Validate(); err == nil {
		t.Error("Validate accepted NaN")
	}
	dm2, _ := NewDistMatrix(3)
	dm2.Set(0, 1, -1)
	if err := dm2.Validate(); err == nil {
		t.Error("Validate accepted negative distance")
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := Cluster(nil); err == nil {
		t.Error("Cluster(nil) succeeded")
	}
	dm, _ := NewDistMatrix(3)
	dm.Set(0, 1, math.Inf(1))
	if _, err := Cluster(dm); err == nil {
		t.Error("Cluster accepted infinite distance")
	}
}

func TestClusterSingleObservation(t *testing.T) {
	dm, _ := NewDistMatrix(1)
	d, err := Cluster(dm)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Merges()) != 0 {
		t.Errorf("merges = %d, want 0", len(d.Merges()))
	}
	labels := d.CutDistance(1)
	if !reflect.DeepEqual(labels, []int{0}) {
		t.Errorf("labels = %v", labels)
	}
}

// Two well-separated groups on a line: {0, 1, 2} and {10, 11}.
func TestClusterTwoGroups(t *testing.T) {
	pts := []float64{0, 1, 2, 10, 11}
	// Cluster is average linkage (UPGMA).
	t.Run("average", func(t *testing.T) {
		dend, err := Cluster(matrixFromPoints(t, pts))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(dend.Merges()); got != len(pts)-1 {
			t.Fatalf("merges = %d, want %d", got, len(pts)-1)
		}
		// Cut below the last merge: two clusters.
		ms := dend.Merges()
		labels := dend.CutDistance(ms[len(ms)-2].Distance)
		if labels[0] != labels[1] || labels[1] != labels[2] {
			t.Errorf("group one split: %v", labels)
		}
		if labels[3] != labels[4] {
			t.Errorf("group two split: %v", labels)
		}
		if labels[0] == labels[3] {
			t.Errorf("groups merged: %v", labels)
		}
	})
}

func TestCutDistanceThresholds(t *testing.T) {
	pts := []float64{0, 1, 2, 10, 11}
	dend, err := Cluster(matrixFromPoints(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny threshold: every observation is its own cluster.
	labels := dend.CutDistance(0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("CutDistance(0) = %v, want %v", labels, want)
	}
	// Huge threshold: everything merges.
	labels = dend.CutDistance(100)
	for _, l := range labels {
		if l != 0 {
			t.Errorf("CutDistance(100) = %v, want all 0", labels)
			break
		}
	}
	// A threshold between the within-group and between-group scales
	// yields exactly the two groups.
	labels = dend.CutDistance(3)
	if labels[0] != labels[2] || labels[0] == labels[3] || labels[3] != labels[4] {
		t.Errorf("CutDistance(3) = %v, want two groups", labels)
	}
}

func allEqual(xs []int) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// UPGMA on a hand-worked example. Points 0,1 at distance 1 merge first;
// the average distance from {0,1} to 2 is (4+3)/2 = 3.5.
func TestAverageLinkageHandWorked(t *testing.T) {
	dm, _ := NewDistMatrix(3)
	dm.Set(0, 1, 1)
	dm.Set(0, 2, 4)
	dm.Set(1, 2, 3)
	dend, err := Cluster(dm)
	if err != nil {
		t.Fatal(err)
	}
	m := dend.Merges()
	if m[0].A != 0 || m[0].B != 1 || m[0].Distance != 1 || m[0].Size != 2 {
		t.Errorf("merge 0 = %+v, want {0 1 1 2}", m[0])
	}
	if m[1].Distance != 3.5 {
		t.Errorf("merge 1 distance = %v, want 3.5", m[1].Distance)
	}
	if m[1].Size != 3 {
		t.Errorf("merge 1 size = %v, want 3", m[1].Size)
	}
}

// TestMergeDistancesSortedAndMonotone checks that UPGMA, a reducible
// linkage, merges at non-decreasing distances (no inversions).
func TestMergeDistancesSortedAndMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]float64, 30)
	for i := range pts {
		pts[i] = rng.Float64() * 100
	}
	dend, err := Cluster(matrixFromPoints(t, pts))
	if err != nil {
		t.Fatal(err)
	}
	raw := dend.Merges()
	for i := 1; i < len(raw); i++ {
		if raw[i].Distance < raw[i-1].Distance-1e-9 {
			t.Fatalf("merge %d at %v after %v (inversion)", i, raw[i].Distance, raw[i-1].Distance)
		}
	}
}

// Property: for arbitrary small point sets, cutting at 0 yields singletons
// and cutting at +inf yields one cluster; label vectors are always valid
// partitions.
func TestClusterPropertyQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 24 {
			return true
		}
		pts := make([]float64, len(raw))
		for i, v := range raw {
			pts[i] = float64(v)
		}
		dm, err := NewDistMatrix(len(pts))
		if err != nil {
			return false
		}
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				dm.Set(i, j, math.Abs(pts[i]-pts[j]))
			}
		}
		dend, err := Cluster(dm)
		if err != nil {
			return false
		}
		all := dend.CutDistance(math.Inf(1))
		if !allEqual(all) {
			return false
		}
		for _, m := range dend.Merges() {
			// Labels number the clusters 0..k-1 in order of each
			// cluster's first observation.
			next := 0
			for _, l := range dend.CutDistance(m.Distance) {
				if l > next {
					return false
				}
				if l == next {
					next++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
