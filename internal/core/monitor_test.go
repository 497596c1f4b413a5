package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/partition"
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

// saveFile round-trips a classifier through Save and re-decodes the
// envelope so tests can corrupt individual sections.
func saveFile(t *testing.T, clf *Classifier) classifierFile {
	t.Helper()
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := decodeClassifierFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func encodeFile(t *testing.T, f classifierFile) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
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
	f := saveFile(t, clf)
	f.Model = []byte("rotten")

	mon, err := LoadMonitor(encodeFile(t, f))
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
	f := saveFile(t, clf)
	f.Scaler = nil // unusable statistical section

	mon, err := LoadMonitor(encodeFile(t, f))
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
	f := saveFile(t, clf)
	f.Model = []byte("rotten")
	f.CallGraph = []byte("also rotten")
	if _, err := LoadMonitor(encodeFile(t, f)); err == nil {
		t.Error("file with no usable model accepted")
	}

	// Version-1 files carry no call-graph section: a corrupt model is
	// fatal there too, and the failure is typed so callers can tell "your
	// bundle predates the fallback" apart from a generic parse failure.
	f = saveFile(t, clf)
	f.Version = 1
	f.Model = nil
	f.CallGraph = nil
	_, err := LoadMonitor(encodeFile(t, f))
	if err == nil {
		t.Fatal("v1 file with corrupt model accepted")
	}
	var fbErr *FallbackUnavailableError
	if !errors.As(err, &fbErr) {
		t.Fatalf("v1 fallback failure is %T (%v), want *FallbackUnavailableError", err, err)
	}
	if fbErr.Version != 1 || fbErr.Cause == nil {
		t.Errorf("FallbackUnavailableError = %+v, want Version 1 with a cause", fbErr)
	}
	if !strings.Contains(err.Error(), "migrate") {
		t.Errorf("error %q does not mention the v1→v2 migration", err)
	}
}

func TestLoadMonitorV2MissingCallGraphIsTyped(t *testing.T) {
	// A v2 bundle saved without a call graph (classifier trained from a
	// v1 file) also reports the typed error, without the migration hint.
	clf, _ := trainStream(t, 46)
	f := saveFile(t, clf)
	f.Scaler = []byte("rotten")
	f.CallGraph = nil
	_, err := LoadMonitor(encodeFile(t, f))
	var fbErr *FallbackUnavailableError
	if !errors.As(err, &fbErr) {
		t.Fatalf("got %T (%v), want *FallbackUnavailableError", err, err)
	}
	if fbErr.Version != classifierVersion {
		t.Errorf("Version = %d, want %d", fbErr.Version, classifierVersion)
	}
}

func TestLoadClassifierAcceptsV1Files(t *testing.T) {
	clf, mal := trainStream(t, 31)
	f := saveFile(t, clf)
	f.Version = 1
	f.CallGraph = nil

	loaded, err := LoadClassifier(encodeFile(t, f))
	if err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
	if loaded.CallGraph() != nil {
		t.Error("v1 file produced a call graph out of thin air")
	}
	want, err := clf.DetectLog(mal)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.DetectLog(mal)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("detection %d differs under v1 load", i)
		}
	}
}

// svmKernelFile, svmModelFile and svmScalerFile mirror the gob layout of
// svm's model and scaler sections, so a test can corrupt one field.
type svmKernelFile struct {
	Kind         string
	Sigma2       float64
	Degree       int
	Gamma, Coef0 float64
}

type svmModelFile struct {
	Kernel            svmKernelFile
	SVX               [][]float64
	SVCoef            []float64
	Bias              float64
	Iters, BoundedSVs int
}

type svmScalerFile struct{ Min, Max []float64 }

// regob decodes a gob section into v, applies edit and re-encodes it.
func regob[T any](t *testing.T, section []byte, edit func(*T)) []byte {
	t.Helper()
	var v T
	if err := gob.NewDecoder(bytes.NewReader(section)).Decode(&v); err != nil {
		t.Fatal(err)
	}
	edit(&v)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadMonitorDegradesOnInconsistentBundle feeds LoadMonitor and
// InspectBundle bundles whose sections each decode but do not fit
// together or hold non-finite values. Each must load degraded, with a
// typed cause, and score a log on the call graph without panicking —
// the 29-dimension scaler used to pass both and panic at the first
// window, and a NaN support-vector coordinate loaded healthy and scored
// every window NaN, flagging none.
func TestLoadMonitorDegradesOnInconsistentBundle(t *testing.T) {
	clf, mal := trainStream(t, 47)
	model := func(edit func(*svmModelFile)) func(*classifierFile) {
		return func(f *classifierFile) { f.Model = regob(t, f.Model, edit) }
	}
	scaler := func(edit func(*svmScalerFile)) func(*classifierFile) {
		return func(f *classifierFile) { f.Scaler = regob(t, f.Scaler, edit) }
	}
	cases := []struct {
		name    string
		corrupt func(*classifierFile)
	}{
		{"29-dimension scaler", scaler(func(s *svmScalerFile) { s.Min, s.Max = s.Min[:29], s.Max[:29] })},
		{"infinite scaler bound", scaler(func(s *svmScalerFile) { s.Max[3] = math.Inf(1) })},
		{"short support vector", model(func(m *svmModelFile) { m.SVX[0] = m.SVX[0][:29] })},
		{"long support vector", model(func(m *svmModelFile) {
			m.SVX[len(m.SVX)-1] = append(slices.Clone(m.SVX[len(m.SVX)-1]), 0.5)
		})},
		{"NaN coefficient", model(func(m *svmModelFile) { m.SVCoef[0] = math.NaN() })},
		{"NaN support-vector coordinate", model(func(m *svmModelFile) { m.SVX[0][4] = math.NaN() })},
		{"infinite support-vector coordinate", model(func(m *svmModelFile) { m.SVX[len(m.SVX)-1][17] = math.Inf(1) })},
		{"infinite bias", model(func(m *svmModelFile) { m.Bias = math.Inf(-1) })},
		{"zero σ²", model(func(m *svmModelFile) { m.Kernel.Sigma2 = 0 })},
		{"NaN Platt A", func(f *classifierFile) { f.PlattA = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := saveFile(t, clf)
			tc.corrupt(&f)
			mon, err := LoadMonitor(encodeFile(t, f))
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
			info, err := InspectBundle(encodeFile(t, f))
			if err != nil || !info.Degraded {
				t.Fatalf("InspectBundle = %+v, %v; want Degraded", info, err)
			}
			if _, err := LoadClassifier(encodeFile(t, f)); !errors.As(err, &invalid) {
				t.Fatalf("LoadClassifier error %v, want *InvalidModelError", err)
			}
		})
	}
}
