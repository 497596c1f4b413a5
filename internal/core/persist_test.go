package core

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/svm"
	"repro/internal/trace"
)

func TestClassifierSaveLoadRoundTrip(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 11)
	td, err := BuildTrainingData(logs.Benign, logs.Mixed, fastConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadClassifier(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}

	// The loaded classifier must produce identical detections.
	want, err := clf.DetectLog(logs.Malicious)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.DetectLog(logs.Malicious)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("detection counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("detection %d differs: %+v vs %+v", i, want[i], got[i])
		}
	}
	if loaded.Model().NumSVs() != clf.Model().NumSVs() {
		t.Errorf("SV count = %d, want %d", loaded.Model().NumSVs(), clf.Model().NumSVs())
	}
}

func TestInspectBundle(t *testing.T) {
	clf, _ := trainStream(t, 31)

	// Healthy bundle: current version, not degraded.
	raw := saveBundle(t, clf)
	info, err := InspectBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("InspectBundle(healthy): %v", err)
	}
	if info.Version != bundleVersion || info.Window != clf.window || info.Degraded {
		t.Errorf("healthy bundle info = %+v, want version %d window %d not degraded",
			info, bundleVersion, clf.window)
	}

	// Corrupt statistical section with a call graph present: degraded.
	info, err = InspectBundle(rebundle(clf, []byte("corrupt")))
	if err != nil {
		t.Fatalf("InspectBundle(degradable): %v", err)
	}
	if !info.Degraded {
		t.Error("corrupt statistical section with a call graph: Degraded = false")
	}

	// An earlier format version, and garbage such as an earlier build's
	// gob bundle, get the one format error, which names the format and
	// says to retrain.
	v2 := slices.Clone(raw)
	v2[len(bundleMagic)] = 2
	for name, b := range map[string][]byte{"version 2": v2, "garbage": []byte("junk"), "empty": nil} {
		_, err := InspectBundle(bytes.NewReader(b))
		if !errors.Is(err, errBundleFormat) {
			t.Errorf("%s: error %v, want the format error", name, err)
		}
	}
	if msg := errBundleFormat.Error(); !strings.Contains(msg, "format v3") || !strings.Contains(msg, "retrain") {
		t.Errorf("format error %q does not name format v3 and say to retrain", msg)
	}
}

// TestBundleKernels saves classifiers over every kernel kind and loads
// them back; a kernel the layout has no kind for is refused by Save, and
// an unknown kind byte by the decoder.
func TestBundleKernels(t *testing.T) {
	clf, mal := trainStream(t, 32)
	sv, dim := clf.model.SupportVectors()
	for _, k := range []svm.Kernel{svm.LinearKernel{}, svm.RBFKernel{Sigma2: 0.5}, svm.PolyKernel{Degree: 2, Gamma: 0.25, Coef0: 1}} {
		c := *clf
		c.model = svm.NewModel(k, sv, dim, clf.model.Coef(), clf.model.Bias())
		raw := saveBundle(t, &c)
		loaded, err := LoadClassifier(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if loaded.model.Kernel() != k {
			t.Errorf("kernel %v loaded as %v", k, loaded.model.Kernel())
		}
		if !bytes.Equal(saveBundle(t, loaded), raw) {
			t.Errorf("%v: the loaded classifier saves different bytes", k)
		}
		want, err := c.DetectLog(mal)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := loaded.DetectLog(mal); err != nil || !slices.Equal(got, want) {
			t.Errorf("%v: loaded detections differ (err %v)", k, err)
		}
	}

	c := *clf
	c.model = svm.NewModel(customKernel{}, sv, dim, clf.model.Coef(), clf.model.Bias())
	if err := c.Save(io.Discard); err == nil {
		t.Error("a kernel without a bundle kind was saved")
	}
	r := &reader{b: []byte{9}, what: "test"}
	if r.kernel(); r.err == nil {
		t.Error("unknown kernel kind decoded")
	}
}

// customKernel is a kernel the bundle layout has no kind for.
type customKernel struct{}

func (customKernel) Compute(a, b []float64) float64 { return 0 }
func (customKernel) String() string                 { return "custom" }

// TestLoadMonitorBoundsAllocation feeds bundles whose counts claim 2⁴⁰
// support vectors, sets, edges or string bytes. Each must fail to decode
// before it allocates for the claim: the statistical ones degrade, the
// call-graph ones are errors, and no load allocates more than a few
// kilobytes per input byte.
func TestLoadMonitorBoundsAllocation(t *testing.T) {
	clf, _ := trainStream(t, 33)
	huge := 1 << 40
	cg := appendCallGraph(nil, clf.cg)
	// sets is a statistical section up to its set count: λ and no
	// Platt. kernel runs on to the support-vector count: two empty
	// cluster tables, a scaler of no columns and an RBF kernel.
	sets := append(appendFloat(nil, 8), 0)
	kernel := appendFloat(append(append(slices.Clone(sets), 0, 0, 0, 0, 0), kernelRBF), 2)
	stats := map[string][]byte{
		"sets":                  appendUint(slices.Clone(sets), huge),
		"names":                 appendUint(appendUint(slices.Clone(sets), 1), huge),
		"string bytes":          appendUint(appendUint(appendUint(slices.Clone(sets), 1), 1), huge),
		"support vectors":       appendUint(appendUint(slices.Clone(kernel), huge), 30),
		"support-vector widths": appendUint(appendUint(slices.Clone(kernel), 1), 1<<30),
	}
	graphs := map[string][]byte{
		"edges":        appendUint(nil, huge),
		"string bytes": appendUint(appendUint(nil, 1), huge),
	}
	var ms runtime.MemStats
	allocated := func(load func()) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		load()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	check := func(name string, raw []byte, wantErr bool) {
		t.Helper()
		var err error
		var mon *Monitor
		if got := allocated(func() { mon, err = LoadMonitor(bytes.NewReader(raw)) }); got > 64<<10+64*uint64(len(raw)) {
			t.Errorf("%s: loading %d bytes allocated %d", name, len(raw), got)
		}
		switch {
		case wantErr && err == nil:
			t.Errorf("%s: bundle accepted", name)
		case !wantErr && (err != nil || !mon.Degraded()):
			t.Errorf("%s: LoadMonitor = %v, %v; want degraded", name, mon, err)
		}
	}
	for name, s := range stats {
		if _, err := decodeStats(clf.window, s); err == nil {
			t.Errorf("statistical section claiming 2⁴⁰ %s decoded", name)
		}
		check("statistics claiming 2⁴⁰ "+name, appendBundle(clf.window, s, cg), false)
	}
	for name, g := range graphs {
		check("call graph claiming 2⁴⁰ "+name, appendBundle(clf.window, nil, g), true)
	}
}

func TestLoadClassifierRejectsGarbage(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadClassifier(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

// smallModel trains a small model for the fuzz target: vim_reverse_tcp
// at 600 benign and 600 mixed events, seed 1, λ 8, σ² 2.
func smallModel(t testing.TB) (*Classifier, *trace.Log) {
	t.Helper()
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 600, 600, 100
	logs, err := spec.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	td, err := BuildTrainingData(logs.Benign, logs.Mixed, fastConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		t.Fatal(err)
	}
	return clf, logs.Malicious
}

// FuzzLoadMonitor feeds arbitrary bytes to LoadMonitor, as registry sync
// and ImportEntry do with bundles from the network. No input may panic;
// an accepted bundle must score a log in either mode; and re-encoding an
// accepted healthy bundle must reach a fixed point: Save(Load(Save(Load(b))))
// equals Save(Load(b)).
func FuzzLoadMonitor(f *testing.F) {
	clf, mal := smallModel(f)
	healthy := saveBundle(f, clf)
	f.Add(healthy)
	f.Add(appendBundle(clf.window, []byte("rotten"), appendCallGraph(nil, clf.cg)))
	for _, n := range []int{len(healthy) - 1, len(healthy) / 2, len(bundleMagic) + 2, 3} {
		f.Add(healthy[:n])
	}
	f.Add([]byte("junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		mon, err := LoadMonitor(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := mon.DetectLog(mal); err != nil {
			t.Fatalf("accepted bundle (degraded %v) cannot score a log: %v", mon.Degraded(), err)
		}
		if mon.Degraded() {
			return
		}
		once := saveBundle(t, mon.clf)
		again, err := LoadClassifier(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-encoded bundle does not load: %v", err)
		}
		if !bytes.Equal(saveBundle(t, again), once) {
			t.Fatal("re-encoding a loaded bundle is not a fixed point")
		}
	})
}
