package preprocess

import (
	"reflect"
	"testing"
)

// roundTrip rebuilds enc from the tables a model bundle stores, as the
// bundle decoder does with NewEncoder.
func roundTrip(t *testing.T, enc *Encoder) *Encoder {
	t.Helper()
	libs, fns := enc.Clusters()
	got, err := NewEncoder(Clusters{Sets: libs.Sets, Labels: libs.Labels, Medoids: libs.Medoids},
		Clusters{Sets: fns.Sets, Labels: fns.Labels, Medoids: fns.Medoids})
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	return got
}

func TestEncoderMarshalRoundTrip(t *testing.T) {
	part := partitionedLog(t, 13)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, enc)
	if got.NumLibClusters() != enc.NumLibClusters() || got.NumFuncClusters() != enc.NumFuncClusters() {
		t.Fatalf("cluster counts changed: (%d,%d) vs (%d,%d)",
			got.NumLibClusters(), got.NumFuncClusters(),
			enc.NumLibClusters(), enc.NumFuncClusters())
	}
	// Identical encodings on the full log, including unseen-set fallback
	// behaviour.
	a := enc.EncodeAll(part)
	b := got.EncodeAll(part)
	if !reflect.DeepEqual(a, b) {
		t.Error("round-tripped encoder produces different tuples")
	}
}

// TestEncoderUnmarshalRejectsGarbage hands NewEncoder tables whose
// labels name no cluster, and checks that consistent tables pass.
func TestEncoderUnmarshalRejectsGarbage(t *testing.T) {
	good := Clusters{Sets: [][]string{{"a"}}, Labels: []int{0}, Medoids: []int{0}}
	for name, bad := range map[string]Clusters{
		"label out of range": {Sets: [][]string{{"a"}}, Labels: []int{1}, Medoids: []int{0}},
		"negative label":     {Sets: [][]string{{"a"}}, Labels: []int{-1}, Medoids: []int{0}},
	} {
		if _, err := NewEncoder(bad, good); err == nil {
			t.Errorf("%s: library table accepted", name)
		}
		if _, err := NewEncoder(good, bad); err == nil {
			t.Errorf("%s: function table accepted", name)
		}
	}
	if _, err := NewEncoder(good, good); err != nil {
		t.Errorf("consistent tables refused: %v", err)
	}
}

// TestClustersSnapshotValidation hands NewEncoder clustering tables no
// fit makes: a label count that differs from the set count, a medoid
// outside the sets, and more medoids than clusters with members.
func TestClustersSnapshotValidation(t *testing.T) {
	good := Clusters{Sets: [][]string{{"a"}}, Labels: []int{0}, Medoids: []int{0}}
	for name, bad := range map[string]Clusters{
		"mismatched labels":   {Sets: [][]string{{"a"}}, Labels: []int{0, 1}, Medoids: []int{0}},
		"medoid out of range": {Sets: [][]string{{"a"}}, Labels: []int{0}, Medoids: []int{5}},
		"medoid count":        {Sets: [][]string{{"a"}}, Labels: []int{0}, Medoids: []int{0, 0}},
	} {
		if _, err := NewEncoder(bad, good); err == nil {
			t.Errorf("%s: library table accepted", name)
		}
		if _, err := NewEncoder(good, bad); err == nil {
			t.Errorf("%s: function table accepted", name)
		}
	}
}
