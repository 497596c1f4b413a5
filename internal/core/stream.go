package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/callgraph"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Streaming telemetry: event throughput (rate = d events_total / dt),
// skip volume, completed windows and checkpoint latency.
var (
	mStreamEvents    = telemetry.NewCounter("core_stream_events_total", "events fed to streaming detectors")
	mStreamSkipped   = telemetry.NewCounter("core_stream_skipped_events_total", "fed events skipped by per-event errors")
	mStreamWindows   = telemetry.NewCounter("core_stream_windows_total", "windows completed by streaming detectors")
	mStreamMalicious = telemetry.NewCounter("core_stream_malicious_total", "streamed windows flagged malicious")
	mCheckpointSecs  = telemetry.NewHistogram("core_checkpoint_seconds", "streaming checkpoint write latency", telemetry.DurationBuckets())
)

// EventError reports one event the streaming detector had to skip: its
// stack walk could not be partitioned or encoded. The detector stays
// usable — the event is counted as consumed and excluded from windows.
type EventError struct {
	// Ordinal is the stream position of the offending event (0-based,
	// counting every event ever fed).
	Ordinal int
	// Cause is the underlying failure.
	Cause error
}

func (e *EventError) Error() string {
	return fmt.Sprintf("core: event %d skipped: %v", e.Ordinal, e.Cause)
}

func (e *EventError) Unwrap() error { return e.Cause }

// StreamDetector applies a trained model to a live event stream: feed
// events as the logger produces them and receive a Detection whenever a
// window completes. This is the production-monitoring shape of the testing
// phase; DetectLog, its batch form, runs the same window loop over a whole
// log.
//
// The detector is crash-safe: Checkpoint serialises the in-flight window
// state and RestoreStream resumes it, producing the same window boundaries
// and scores an uninterrupted run would have. In degraded mode (no usable
// statistical model, see Monitor) it scores windows with the call-graph
// baseline instead of the WSVM.
//
// A StreamDetector is safe for concurrent use: Feed, Checkpoint and the
// counter accessors serialise on an internal mutex, so a serving process
// can checkpoint a session while another goroutine is mid-ingest. Event
// order still matters — concurrent Feed calls are applied in lock-acquisition
// order — so callers that need deterministic verdicts must serialise their
// own event stream (one logical feeder per session).
type StreamDetector struct {
	mu     sync.Mutex
	clf    *Classifier      // nil in degraded mode
	cg     *callgraph.Model // scores windows when clf is nil
	window int
	// buf holds the encoded tuples of the open window (WSVM mode);
	// evbuf holds its partitioned events (degraded mode), whose stack
	// traces live in frames until the window closes.
	buf    []preprocess.Tuple
	evbuf  []partition.Event
	frames trace.StackWalk
	// consumed counts every event ever fed, skipped counts the subset
	// excluded by per-event errors; winStart is the ordinal of the first
	// event in the open window.
	consumed int
	skipped  int
	winStart int
	// Ingest scratch, recycled every event: the featurizer (its walk
	// table and encoder scratch) and the flattened and scaled window
	// vectors. Anything retained across events must be copied out of
	// these buffers; the walk table is derived state and never leaves
	// the detector.
	feat   featurizer
	winVec []float64
	svec   []float64
}

// reset points the detector at a new stream of one process scored by
// the given model. Buffers and counters start empty, and so does the
// walk table, which is only valid for one module map and one encoder;
// the scratch memory is kept.
func (s *StreamDetector) reset(clf *Classifier, cg *callgraph.Model, window int, modules *trace.ModuleMap) {
	s.clf, s.cg, s.window = clf, cg, window
	s.buf, s.evbuf, s.frames = s.buf[:0], s.evbuf[:0], s.frames[:0]
	s.consumed, s.skipped, s.winStart = 0, 0, 0
	s.feat.reset(modules)
}

// Stream starts a streaming session for one process, identified by its
// module map (needed to partition stack walks).
func (c *Classifier) Stream(modules *trace.ModuleMap) (*StreamDetector, error) {
	return NewMonitor(c).Stream(modules)
}

// Feed consumes one event. It returns a non-nil Detection when the event
// completed a window. A returned *EventError means this event was skipped
// (counted, excluded from windows) and the detector remains usable.
func (s *StreamDetector) Feed(e trace.Event) (*Detection, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mStreamEvents.Inc()
	det, ok, err := s.feed(&e)
	s.feat.flush()
	if err != nil {
		mStreamSkipped.Inc()
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	mStreamWindows.Inc()
	if det.Malicious {
		mStreamMalicious.Inc()
	}
	// Escaping a copy allocates once per window; escaping det itself
	// would allocate on every call.
	out := det
	return &out, nil
}

// feed is the testing phase's one window loop step, shared by Feed and
// DetectLog: it featurizes one event into the open window and scores the
// window once it is full, with the WSVM or, in degraded mode, the
// call-graph baseline. It reports whether the event completed a window;
// an *EventError means the event was skipped. Callers hold s.mu or own
// the detector, and flush the featurizer's telemetry.
func (s *StreamDetector) feed(e *trace.Event) (Detection, bool, error) {
	ord := s.consumed
	s.consumed++
	if s.clf == nil {
		// Call-graph scoring needs the split traces themselves.
		pe, err := s.feat.event(e)
		if err != nil {
			return Detection{}, false, s.skip(ord, err)
		}
		if len(s.evbuf) == 0 {
			s.winStart = ord
		}
		s.evbuf = append(s.evbuf, s.own(&pe))
		if len(s.evbuf) < s.window {
			return Detection{}, false, nil
		}
		det := degradedDetection(s.cg, s.evbuf, s.winStart, ord)
		s.evbuf, s.frames = s.evbuf[:0], s.frames[:0]
		return det, true, nil
	}
	t, err := s.feat.tuple(s.clf.enc, e)
	if err != nil {
		return Detection{}, false, s.skip(ord, err)
	}
	if len(s.buf) == 0 {
		s.winStart = ord
	}
	s.buf = append(s.buf, t)
	if len(s.buf) < s.window {
		return Detection{}, false, nil
	}
	// The buffer holds exactly one window; flatten and scale it in place.
	s.winVec = preprocess.FlattenWindow(s.winVec[:0], s.buf)
	s.buf = s.buf[:0]
	s.svec = s.clf.scaler.ApplyInto(s.svec[:0], s.winVec)
	score := s.clf.model.Decision(s.svec)
	pMal := 0.5
	if s.clf.platt != nil {
		pMal = 1 - s.clf.platt.Probability(score)
	}
	return Detection{
		FirstEvent:  s.winStart,
		LastEvent:   ord,
		Score:       score,
		Probability: pMal,
		Malicious:   score < 0,
	}, true, nil
}

// detectorPool recycles the detectors batch detection runs. Everything a
// detector holds is consumed before detectLog returns — only the fresh
// Detection slice escapes — so pooling keeps concurrent detections (serve
// workers, shadow canary) safe while the steady state stays nearly
// allocation-free.
var detectorPool = sync.Pool{New: func() any { return new(StreamDetector) }}

// detectLog is batch detection: the log's events fed in order through a
// pooled detector reset for this log, so windows start at multiples of
// the window width. It stops at the first event the detector would skip.
func (m *Monitor) detectLog(ctx context.Context, log *trace.Log) ([]Detection, error) {
	_, sp := telemetry.StartSpan(ctx, "detect")
	defer sp.End()
	if log == nil {
		return nil, errors.New("core: nil log")
	}
	if log.Modules == nil {
		return nil, errors.New("core: log has no module map")
	}
	s := detectorPool.Get().(*StreamDetector)
	defer detectorPool.Put(s)
	s.reset(m.clf, m.cg, m.window, log.Modules)
	defer s.feat.flush()
	out := make([]Detection, 0, len(log.Events)/m.window)
	var malicious uint64
	for i := range log.Events {
		det, ok, err := s.feed(&log.Events[i])
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, det)
			if det.Malicious {
				malicious++
			}
		}
	}
	if m.clf != nil {
		preprocess.CreditTail(s.pending())
	}
	mDetectWindows.Add(uint64(len(out)))
	mDetectMalicious.Add(malicious)
	return out, nil
}

// skip counts event ord as consumed but excluded from windows.
func (s *StreamDetector) skip(ord int, cause error) error {
	s.skipped++
	return &EventError{Ordinal: ord, Cause: cause}
}

// own copies a partitioned event out of the featurizer's walk table,
// which a later event may reset mid-window, for the open degraded
// window: its stack traces move into the frames slab, which is truncated
// when the window closes. Slab growth leaves earlier events on the old
// backing, which append never mutates.
func (s *StreamDetector) own(pe *partition.Event) partition.Event {
	pc := *pe
	pc.AppTrace, pc.SysTrace = s.ownFrames(pe.AppTrace), s.ownFrames(pe.SysTrace)
	return pc
}

func (s *StreamDetector) ownFrames(w trace.StackWalk) trace.StackWalk {
	if len(w) == 0 {
		return nil
	}
	n := len(s.frames)
	s.frames = append(s.frames, w...)
	return s.frames[n:len(s.frames):len(s.frames)]
}

// degradedDetection scores one window by call-graph vote margin: the score
// is the benign-minus-malicious exclusive-edge vote count (negative means
// malicious, matching the WSVM convention) and the probability is the
// malicious vote share (0.5 when there is no evidence).
func degradedDetection(cg *callgraph.Model, events []partition.Event, first, last int) Detection {
	b, mal := cg.WindowVotes(events)
	p := 0.5
	if b+mal > 0 {
		p = float64(mal) / float64(b+mal)
	}
	return Detection{
		FirstEvent:  first,
		LastEvent:   last,
		Score:       float64(b - mal),
		Probability: p,
		Malicious:   mal > b,
	}
}

// pending reports the open-window buffer length; callers hold s.mu.
func (s *StreamDetector) pending() int {
	if s.clf == nil {
		return len(s.evbuf)
	}
	return len(s.buf)
}

// Pending reports how many events are buffered toward the next window.
func (s *StreamDetector) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending()
}

// Consumed reports how many events were fed so far, including skipped ones.
func (s *StreamDetector) Consumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.consumed
}

// Skipped reports how many fed events were excluded by per-event errors.
func (s *StreamDetector) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Degraded reports whether windows are scored by the call-graph fallback
// instead of the statistical model.
func (s *StreamDetector) Degraded() bool { return s.clf == nil }

// checkpoint is the in-flight state of a StreamDetector, written as one
// JSON object. The model itself is not included: restore pairs a
// checkpoint with a detector built from the same classifier (or monitor).
type checkpoint struct {
	Window   int                `json:"window"`
	Degraded bool               `json:"degraded"`
	Consumed int                `json:"consumed"`
	Skipped  int                `json:"skipped"`
	WinStart int                `json:"win_start"`
	Tuples   []preprocess.Tuple `json:"tuples,omitempty"`
	Events   []partition.Event  `json:"events,omitempty"`
}

// Checkpoint writes the detector's in-flight state — the open window's
// buffered events and the stream counters — as one JSON object, so a
// crashed or restarted monitor can resume with RestoreStream and produce
// the same window boundaries and scores as an uninterrupted run.
func (s *StreamDetector) Checkpoint(w io.Writer) error {
	start := time.Now()
	defer func() { mCheckpointSecs.Observe(time.Since(start).Seconds()) }()
	s.mu.Lock()
	b, err := json.Marshal(checkpoint{
		Window:   s.window,
		Degraded: s.clf == nil,
		Consumed: s.consumed,
		Skipped:  s.skipped,
		WinStart: s.winStart,
		Tuples:   s.buf,
		Events:   s.evbuf,
	})
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// restore loads a checkpoint into a freshly-constructed detector,
// validating that it matches the detector's model shape.
func (s *StreamDetector) restore(r io.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	var f checkpoint
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if f.Window != s.window {
		return fmt.Errorf("core: checkpoint window %d does not match model window %d", f.Window, s.window)
	}
	if f.Degraded != (s.clf == nil) {
		return fmt.Errorf("core: checkpoint degraded=%v does not match detector mode", f.Degraded)
	}
	if f.Consumed < 0 || f.Skipped < 0 || f.Skipped > f.Consumed {
		return fmt.Errorf("core: checkpoint counters invalid (consumed %d, skipped %d)", f.Consumed, f.Skipped)
	}
	if len(f.Tuples) >= f.Window || len(f.Events) >= f.Window {
		return fmt.Errorf("core: checkpoint buffers a full window (%d/%d tuples, %d events)",
			len(f.Tuples), f.Window, len(f.Events))
	}
	// Only the detector's own mode buffers: tuples in statistical mode,
	// partitioned events in degraded mode.
	if (f.Degraded && len(f.Tuples) > 0) || (!f.Degraded && len(f.Events) > 0) {
		return fmt.Errorf("core: checkpoint (degraded=%v) buffers %d tuples and %d events of the other mode",
			f.Degraded, len(f.Tuples), len(f.Events))
	}
	// The open window holds events that were fed and not skipped, and
	// it starts at one of them.
	buffered := len(f.Tuples) + len(f.Events)
	if buffered > f.Consumed-f.Skipped {
		return fmt.Errorf("core: checkpoint buffers %d events but consumed %d and skipped %d",
			buffered, f.Consumed, f.Skipped)
	}
	if buffered > 0 && (f.WinStart < 0 || f.WinStart > f.Consumed-buffered) {
		return fmt.Errorf("core: checkpoint window start %d outside [0, %d] for %d buffered of %d consumed",
			f.WinStart, f.Consumed-buffered, buffered, f.Consumed)
	}
	s.consumed = f.Consumed
	s.skipped = f.Skipped
	s.winStart = f.WinStart
	s.buf = f.Tuples
	s.evbuf = f.Events
	return nil
}
