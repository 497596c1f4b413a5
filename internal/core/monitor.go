package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/callgraph"
	"repro/internal/trace"
)

// Monitor is the fault-tolerant front of the testing phase: a detector
// that prefers the statistical WSVM classifier but degrades to the
// call-graph baseline when the statistical sections of a model file are
// corrupt or missing, instead of refusing to monitor at all.
type Monitor struct {
	clf    *Classifier      // nil in degraded mode
	cg     *callgraph.Model // the fallback (and bundled baseline)
	window int
	cause  error // why the monitor is degraded, nil otherwise
}

// NewMonitor wraps an in-memory classifier (never degraded).
func NewMonitor(c *Classifier) *Monitor {
	return &Monitor{clf: c, cg: c.cg, window: c.window}
}

// FallbackUnavailableError reports a model bundle whose statistical
// sections are unusable and that carries no call-graph section to degrade
// to. Version-1 bundles always trip this — they predate the embedded
// call-graph fallback — so the fix is a migration, not a repair: re-save
// the model with a current build (or retrain) to produce a version-2
// bundle. DESIGN.md §5 documents the migration.
type FallbackUnavailableError struct {
	// Version is the bundle's file-format version.
	Version int
	// Cause is why the statistical sections were unusable.
	Cause error
}

func (e *FallbackUnavailableError) Error() string {
	if e.Version < 2 {
		return fmt.Sprintf("core: version-%d model bundle predates the embedded call-graph fallback (re-save or retrain to migrate to version %d): %v",
			e.Version, classifierVersion, e.Cause)
	}
	return fmt.Sprintf("core: version-%d model bundle carries no call-graph fallback: %v", e.Version, e.Cause)
}

func (e *FallbackUnavailableError) Unwrap() error { return e.Cause }

// LoadMonitor reads a classifier file like LoadClassifier but degrades
// instead of failing: when the statistical sections are unusable and the
// file carries a call-graph section, the returned Monitor runs the
// call-graph baseline and reports why via DegradedCause. Only a file whose
// envelope is unreadable — or that offers no usable model at all — is an
// error.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	f, err := decodeClassifierFile(r)
	if err != nil {
		return nil, err
	}
	return f.monitor()
}

// monitor is the one acceptance rule of LoadMonitor and InspectBundle:
// the classifier when its statistical sections decode, else the
// call-graph fallback, else an error — the typed FallbackUnavailableError
// when the file carries no call-graph section at all.
func (f classifierFile) monitor() (*Monitor, error) {
	clf, cerr := f.classifier()
	if cerr == nil {
		return NewMonitor(clf), nil
	}
	cg, gerr := f.callGraph()
	if gerr != nil {
		if len(f.CallGraph) == 0 {
			return nil, &FallbackUnavailableError{Version: f.Version, Cause: cerr}
		}
		return nil, fmt.Errorf("core: no usable model: %w (call-graph fallback: %v)", cerr, gerr)
	}
	return &Monitor{cg: cg, window: f.Window, cause: cerr}, nil
}

// BundleInfo summarises a model bundle's envelope and usability without
// keeping the loaded model. The model registry records it in entry
// manifests so listings can show what a bundle is before anyone loads it.
type BundleInfo struct {
	// Version is the bundle's file-format version.
	Version int
	// Window is the event-coalescing window the model classifies with.
	Window int
	// Degraded reports that the statistical sections are unusable and a
	// Monitor loading this bundle would run the call-graph fallback.
	Degraded bool
}

// InspectBundle decodes a model bundle just far enough to describe it:
// the file-format version, the detection window, and whether a Monitor
// would run degraded. It applies LoadMonitor's acceptance rules — a
// bundle with no usable model at all is an error, including the typed
// FallbackUnavailableError for statistical corruption with no call-graph
// section to fall back to.
func InspectBundle(r io.Reader) (BundleInfo, error) {
	f, err := decodeClassifierFile(r)
	if err != nil {
		return BundleInfo{}, err
	}
	m, err := f.monitor()
	if err != nil {
		return BundleInfo{}, err
	}
	return BundleInfo{Version: f.Version, Window: f.Window, Degraded: m.Degraded()}, nil
}

// Degraded reports whether the monitor fell back to the call-graph
// baseline.
func (m *Monitor) Degraded() bool { return m.clf == nil }

// DegradedCause returns why the statistical model was unusable (nil when
// not degraded).
func (m *Monitor) DegradedCause() error { return m.cause }

// Window returns the event-coalescing width the monitor classifies with.
func (m *Monitor) Window() int { return m.window }

// Classifier returns the underlying statistical classifier, nil when
// degraded.
func (m *Monitor) Classifier() *Classifier { return m.clf }

// DetectLog classifies a full log, batch-style. In degraded mode each
// window is scored by the call-graph vote margin (see degradedDetection).
func (m *Monitor) DetectLog(log *trace.Log) ([]Detection, error) {
	return m.detectLog(context.Background(), log)
}

// Stream starts a streaming session for one process, identified by its
// module map (degraded sessions score windows with the call-graph
// baseline).
func (m *Monitor) Stream(modules *trace.ModuleMap) (*StreamDetector, error) {
	if modules == nil {
		return nil, errors.New("core: nil module map")
	}
	s := new(StreamDetector)
	s.reset(m.clf, m.cg, m.window, modules)
	return s, nil
}

// RestoreStream starts a streaming session and resumes it from a
// checkpoint written by StreamDetector.Checkpoint. The checkpoint must
// have been taken in the same mode (degraded or not) as this monitor.
func (m *Monitor) RestoreStream(modules *trace.ModuleMap, r io.Reader) (*StreamDetector, error) {
	s, err := m.Stream(modules)
	if err != nil {
		return nil, err
	}
	if err := s.restore(r); err != nil {
		return nil, err
	}
	return s, nil
}
