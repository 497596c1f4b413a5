package telemetry

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span times one pipeline stage. Spans aggregate by path: every
// StartSpan("train/smo") under the same parentage accumulates into one
// SpanSnapshot (count, total, min, max) rather than recording individual
// traces — the cheap shape that still answers "where does the pipeline
// spend effort". When the starting context carries a TraceContext, the
// span's completion is additionally recorded in the flight recorder
// stamped with the trace ID, so individual requests and retraining
// cycles stay reconstructible from the ring.
type Span struct {
	path  string
	trace string
	start time.Time
}

type spanCtxKey struct{}

// StartSpan opens a span named name. If the context already carries a
// span, the new span nests under it (path "parent/name"); the returned
// context carries the new span for further nesting. End records the
// duration.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(spanCtxKey{}).(*Span); ok {
		name = parent.path + "/" + name
	}
	s := &Span{path: name, trace: TraceIDFrom(ctx), start: time.Now()}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// End records the span's duration into the global span table and, for
// traced spans, into the flight recorder.
func (s *Span) End() {
	d := time.Since(s.start)
	globalSpans.record(s.path, d)
	if s.trace != "" {
		RecordFlight(FlightEntry{Kind: "span", Name: s.path, Trace: s.trace, Dur: d})
	}
}

// spanStat accumulates one path's durations.
type spanStat struct {
	count    uint64
	total    time.Duration
	min, max time.Duration
}

// spanTable is the global path → aggregate map. Span ends are stage-level
// (a handful per pipeline run), so a plain mutex is plenty.
type spanTable struct {
	mu    sync.Mutex
	stats map[string]*spanStat
}

var globalSpans = &spanTable{stats: make(map[string]*spanStat)}

func (t *spanTable) record(path string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.stats[path]
	if !ok {
		st = &spanStat{min: d, max: d}
		t.stats[path] = st
	}
	st.count++
	st.total += d
	if d < st.min {
		st.min = d
	}
	if d > st.max {
		st.max = d
	}
}

// SpanSnapshot is the aggregate of one span path.
type SpanSnapshot struct {
	Path  string        `json:"path"`
	Count uint64        `json:"count"`
	Total time.Duration `json:"total_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	// TotalSeconds duplicates Total for human-friendly JSON consumers.
	TotalSeconds float64 `json:"total_seconds"`
}

// SpanReport returns the span table sorted by path, which places children
// directly after their parents.
func SpanReport() []SpanSnapshot {
	globalSpans.mu.Lock()
	out := make([]SpanSnapshot, 0, len(globalSpans.stats))
	for p, st := range globalSpans.stats {
		out = append(out, SpanSnapshot{
			Path:         p,
			Count:        st.count,
			Total:        st.total,
			Min:          st.min,
			Max:          st.max,
			TotalSeconds: st.total.Seconds(),
		})
	}
	globalSpans.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// ResetSpans clears the global span table (tests, run separation).
func ResetSpans() {
	globalSpans.mu.Lock()
	globalSpans.stats = make(map[string]*spanStat)
	globalSpans.mu.Unlock()
}
