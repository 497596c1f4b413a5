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
// call-graph baseline when the statistical section of a model bundle is
// corrupt, instead of refusing to monitor at all.
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

// LoadMonitor reads a classifier file like LoadClassifier but degrades
// instead of failing: when the statistical section is unusable, the
// returned Monitor runs the call-graph baseline and reports why via
// DegradedCause. A bundle whose header, framing or call-graph section is
// unreadable is an error, and so is one whose statistical section is
// unusable while its call graph holds no edges (a universal classifier's
// bundle): its matcher would call every window benign. This is the one
// acceptance rule; InspectBundle and so the registry's Publish apply it
// too.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	window, stats, cg, err := readBundle(r)
	if err != nil {
		return nil, err
	}
	c, err := decodeStats(window, stats)
	if err != nil {
		if bcg, mcg := cg.Edges(); len(bcg)+len(mcg) == 0 {
			return nil, fmt.Errorf("core: unusable bundle: %w, and its call-graph section holds no edges to fall back on", err)
		}
		return &Monitor{cg: cg, window: window, cause: err}, nil
	}
	c.cg = cg
	return NewMonitor(c), nil
}

// BundleInfo summarises a model bundle's envelope and usability without
// keeping the loaded model. The model registry records it in entry
// manifests so listings can show what a bundle is before anyone loads it.
type BundleInfo struct {
	// Version is the bundle's file-format version.
	Version int
	// Window is the event-coalescing window the model classifies with.
	Window int
	// Degraded reports that the statistical section is unusable and a
	// Monitor loading this bundle would run the call-graph fallback.
	Degraded bool
}

// InspectBundle decodes a model bundle under LoadMonitor's acceptance
// rule and describes it: the file-format version, the detection window,
// and whether a Monitor would run degraded.
func InspectBundle(r io.Reader) (BundleInfo, error) {
	m, err := LoadMonitor(r)
	if err != nil {
		return BundleInfo{}, err
	}
	return BundleInfo{Version: bundleVersion, Window: m.window, Degraded: m.Degraded()}, nil
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
