package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/partition"
	"repro/internal/svm"
	"repro/internal/trace"
)

// referenceDegraded is degraded batch detection on the reference path:
// the whole log partitioned at once, then every full window scored by
// call-graph vote margin.
func referenceDegraded(t *testing.T, cg *callgraph.Model, window int, log *trace.Log) []Detection {
	t.Helper()
	part, err := partition.Split(log)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Detection, 0, part.Len()/window)
	for first := 0; first+window <= part.Len(); first += window {
		out = append(out, degradedDetection(cg, part.Events[first:first+window], first, first+window-1))
	}
	return out
}

// saveBundle returns clf's saved bytes.
func saveBundle(t testing.TB, clf *Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rebundle frames clf's window and call graph around a given
// statistical section, so a test can corrupt that section alone.
func rebundle(clf *Classifier, stats []byte) *bytes.Reader {
	return bytes.NewReader(appendBundle(clf.window, stats, appendCallGraph(nil, clf.cg)))
}

func TestLoadMonitorHealthyFile(t *testing.T) {
	clf, mal := trainStream(t, 27)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	mon, err := LoadMonitor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mon.Degraded() {
		t.Fatalf("healthy file loaded degraded: %v", mon.DegradedCause())
	}
	if mon.Classifier() == nil || mon.Window() != clf.window {
		t.Fatalf("monitor state: clf=%v window=%d", mon.Classifier() != nil, mon.Window())
	}
	want, err := clf.DetectLog(mal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mon.DetectLog(mal)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("monitor %d detections, classifier %d", len(got), len(want))
	}
}

func TestLoadMonitorDegradesToCallGraph(t *testing.T) {
	clf, mal := trainStream(t, 28)
	mon, err := LoadMonitor(rebundle(clf, []byte("rotten")))
	if err != nil {
		t.Fatalf("LoadMonitor refused a file with a usable call graph: %v", err)
	}
	if !mon.Degraded() || mon.DegradedCause() == nil {
		t.Fatal("corrupt statistical section did not degrade the monitor")
	}
	if mon.Classifier() != nil {
		t.Fatal("degraded monitor still exposes a classifier")
	}

	// Degraded batch detection matches the reference and flags the
	// malicious log.
	want := referenceDegraded(t, mon.cg, mon.Window(), mal)
	dets, err := mon.DetectLog(mal)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(dets, want) {
		t.Fatalf("degraded DetectLog differs from the reference (%d vs %d detections)", len(dets), len(want))
	}
	if !slices.ContainsFunc(dets, func(d Detection) bool { return d.Malicious }) {
		t.Error("degraded call-graph matcher flagged nothing in the pure-malicious log")
	}

	// Degraded streaming matches the reference too.
	stream, err := mon.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Degraded() {
		t.Fatal("stream from degraded monitor is not degraded")
	}
	if streamed := feedAll(t, stream, mal.Events); !slices.Equal(streamed, want) {
		t.Fatalf("degraded Feed differs from the reference (%d vs %d detections)", len(streamed), len(want))
	}
}

// TestDegradedDetectLogAllocs pins a warm degraded DetectLog's allocation
// count. The call-graph matcher's per-edge strings are nearly all of it;
// the detector copies each window's frames into a slab it reuses, so it
// adds no allocation per event.
func TestDegradedDetectLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled detectors at random under -race")
	}
	// Allocations per call on this log; the whole-log Split that batch
	// detection ran before it shared Feed's loop made 26,875.
	const degradedAllocBudget = 26822
	clf, mal := trainStream(t, 28)
	mon := &Monitor{cg: clf.cg, window: clf.window}
	if _, err := mon.DetectLog(mal); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := mon.DetectLog(mal); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > degradedAllocBudget {
		t.Errorf("warm degraded DetectLog allocated %.0f times per call, budget %d", allocs, degradedAllocBudget)
	}
}

func TestLoadMonitorDegradedCheckpointRoundTrip(t *testing.T) {
	clf, mal := trainStream(t, 29)
	mon, err := LoadMonitor(rebundle(clf, nil)) // empty statistical section
	if err != nil {
		t.Fatal(err)
	}
	if !mon.Degraded() {
		t.Fatal("monitor not degraded")
	}
	n := 3*mon.Window() + 2
	ref, err := mon.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	var want []Detection
	for _, e := range mal.Events[:n] {
		if det, err := ref.Feed(e); err != nil {
			t.Fatal(err)
		} else if det != nil {
			want = append(want, *det)
		}
	}

	cut := mon.Window() + 4
	s1, err := mon.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	var got []Detection
	for _, e := range mal.Events[:cut] {
		if det, err := s1.Feed(e); err != nil {
			t.Fatal(err)
		} else if det != nil {
			got = append(got, *det)
		}
	}
	var ckpt bytes.Buffer
	if err := s1.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	s2, err := mon.RestoreStream(mal.Modules, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mal.Events[cut:n] {
		if det, err := s2.Feed(e); err != nil {
			t.Fatal(err)
		} else if det != nil {
			got = append(got, *det)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("interrupted degraded run %d detections, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degraded detection %d differs after restore: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestLoadMonitorNoFallbackAvailable(t *testing.T) {
	clf, _ := trainStream(t, 30)
	rotten := appendBundle(clf.window, []byte("rotten"), []byte("also rotten"))
	if _, err := LoadMonitor(bytes.NewReader(rotten)); err == nil {
		t.Error("file with no usable model accepted")
	}
	// A call graph that does not decode is no fallback, and a loaded
	// classifier always carries one: the bundle is malformed even with a
	// healthy statistical section.
	stats, err := clf.appendStats(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMonitor(bytes.NewReader(appendBundle(clf.window, stats, []byte("rotten")))); err == nil {
		t.Error("healthy statistics beside a rotten call graph accepted")
	}
}

// TestLoadMonitorMissingCallGraphIsMalformed cuts a bundle after its
// statistical section, and appends a byte after its call graph: both
// bundles are malformed, whatever their statistical section holds.
func TestLoadMonitorMissingCallGraphIsMalformed(t *testing.T) {
	clf, _ := trainStream(t, 46)
	cg := appendCallGraph(nil, clf.cg)
	stats, err := clf.appendStats(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string][]byte{"healthy": stats, "rotten": []byte("rotten")} {
		b := appendBundle(clf.window, s, cg)
		for what, bad := range map[string][]byte{
			"no call-graph section": b[:len(b)-len(appendSection(nil, cg))],
			"trailing byte":         append(b, 0),
		} {
			if _, err := LoadMonitor(bytes.NewReader(bad)); err == nil {
				t.Errorf("%s statistics, %s: bundle accepted", name, what)
			}
			if _, err := InspectBundle(bytes.NewReader(bad)); err == nil {
				t.Errorf("%s statistics, %s: InspectBundle accepted it", name, what)
			}
		}
	}
}

// TestLoadMonitorDegradesOnInconsistentBundle saves classifiers whose
// sections each encode but do not fit together or hold non-finite
// values. Each bundle must load degraded, with a typed cause, and score
// a log on the call graph without panicking — the 29-dimension scaler
// used to pass both and panic at the first window, and a NaN
// support-vector coordinate loaded healthy and scored every window NaN,
// flagging none.
func TestLoadMonitorDegradesOnInconsistentBundle(t *testing.T) {
	clf, mal := trainStream(t, 47)
	lo, hi := clf.scaler.Bounds()
	sv, dim := clf.model.SupportVectors()
	coef, bias, kernel := clf.model.Coef(), clf.model.Bias(), clf.model.Kernel()
	n := len(coef)
	// resized copies every support vector at width d, padding with 0.5.
	resized := func(d int) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			row := sv[i*dim : (i+1)*dim]
			out = append(out, row[:min(d, dim)]...)
			for j := dim; j < d; j++ {
				out = append(out, 0.5)
			}
		}
		return out
	}
	set := func(vs []float64, i int, v float64) []float64 {
		vs = slices.Clone(vs)
		vs[i] = v
		return vs
	}
	model := func(k svm.Kernel, sv []float64, dim int, coef []float64, bias float64) func(*Classifier) {
		return func(c *Classifier) { c.model = svm.NewModel(k, sv, dim, coef, bias) }
	}
	scaler := func(lo, hi []float64) func(*Classifier) {
		return func(c *Classifier) { c.scaler = svm.NewScaler(lo, hi) }
	}
	cases := []struct {
		name    string
		corrupt func(*Classifier)
	}{
		{"29-dimension scaler", scaler(lo[:29], hi[:29])},
		{"infinite scaler bound", scaler(lo, set(hi, 3, math.Inf(1)))},
		{"short support vector", model(kernel, resized(dim-1), dim-1, coef, bias)},
		{"long support vector", model(kernel, resized(dim+1), dim+1, coef, bias)},
		{"NaN coefficient", model(kernel, sv, dim, set(coef, 0, math.NaN()), bias)},
		{"NaN support-vector coordinate", model(kernel, set(sv, 4, math.NaN()), dim, coef, bias)},
		{"infinite support-vector coordinate", model(kernel, set(sv, (n-1)*dim+17, math.Inf(1)), dim, coef, bias)},
		{"infinite bias", model(kernel, sv, dim, coef, math.Inf(-1))},
		{"zero σ²", model(svm.RBFKernel{}, sv, dim, coef, bias)},
		{"NaN Platt A", func(c *Classifier) { c.platt = &svm.PlattScaler{A: math.NaN(), B: 1} }},
		{"infinite Platt B", func(c *Classifier) { c.platt = &svm.PlattScaler{A: -1, B: math.Inf(1)} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := *clf
			tc.corrupt(&bad)
			raw := saveBundle(t, &bad)
			mon, err := LoadMonitor(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("LoadMonitor refused a bundle with a usable call graph: %v", err)
			}
			var invalid *InvalidModelError
			if !mon.Degraded() || !errors.As(mon.DegradedCause(), &invalid) {
				t.Fatalf("monitor degraded=%v, cause %v; want degraded by *InvalidModelError", mon.Degraded(), mon.DegradedCause())
			}
			dets, err := mon.DetectLog(mal)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceDegraded(t, mon.cg, mon.Window(), mal); !slices.Equal(dets, want) {
				t.Fatalf("degraded DetectLog differs from the reference (%d vs %d detections)", len(dets), len(want))
			}
			info, err := InspectBundle(bytes.NewReader(raw))
			if err != nil || !info.Degraded {
				t.Fatalf("InspectBundle = %+v, %v; want Degraded", info, err)
			}
			if _, err := LoadClassifier(bytes.NewReader(raw)); !errors.As(err, &invalid) {
				t.Fatalf("LoadClassifier error %v, want *InvalidModelError", err)
			}
		})
	}
}
