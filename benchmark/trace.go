package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one operation share Op; Parent links a
// span to the span that caused it (0 for an operation's root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N counts the units of work the span covered (events, windows or
	// bytes, depending on the layer).
	N int64 `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no branches.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s span
}

// begin starts a span named name under parent within operation op.
func (t *tracer) begin(name string, op, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		ID: t.ids.Add(1), Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.epoch)),
	}}
}

// newOp returns a fresh operation ID (0 when untraced).
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (o openSpan) id() int64 { return o.s.ID }

// end closes the span, crediting it with n units of work.
func (o openSpan) end(n int64) {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.N = n
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int64
	dur   int64 // summed span durations, ns
	self  int64 // summed self times (duration minus children), ns
	n     int64 // summed work units
}

// stats aggregates spans by name. A span's self time is its duration
// minus the durations of its child spans.
func (t *tracer) stats() map[string]*layerStat {
	if t == nil {
		return map[string]*layerStat{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		st.count++
		st.dur += s.dur()
		st.self += s.dur() - children[s.ID]
		st.n += s.N
	}
	return out
}

// meanMs is the mean span duration in milliseconds (0 with no spans).
func (st *layerStat) meanMs() float64 {
	if st == nil || st.count == 0 {
		return 0
	}
	return float64(st.dur) / float64(st.count) / 1e6
}

// usPerUnit is the summed duration per work unit in microseconds.
func (st *layerStat) usPerUnit() float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.dur) / float64(st.n) / 1e3
}

// unattributedPct is the share of the root spans' time that no child
// span covers: the "layers sum to the whole" check.
func unattributedPct(root *layerStat) float64 {
	if root == nil || root.dur == 0 {
		return 0
	}
	return 100 * float64(root.self) / float64(root.dur)
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
