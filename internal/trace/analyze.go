package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Log summary statistics for diagnostics.

// Stats summarises a log for diagnostics.
type Stats struct {
	Events   int
	Threads  int
	First    time.Time
	Last     time.Time
	ByType   map[EventType]int
	AvgStack float64
	MaxStack int
	// UnresolvedFrames counts frames outside every loaded module
	// (injected code).
	UnresolvedFrames int
	TotalFrames      int
}

// Stats computes summary statistics over the log.
func (l *Log) Stats() Stats {
	s := Stats{Events: l.Len(), ByType: make(map[EventType]int)}
	threads := make(map[int]bool)
	var frames int
	for i, e := range l.Events {
		s.ByType[e.Type]++
		threads[e.TID] = true
		if i == 0 || e.Time.Before(s.First) {
			s.First = e.Time
		}
		if e.Time.After(s.Last) {
			s.Last = e.Time
		}
		frames += len(e.Stack)
		if len(e.Stack) > s.MaxStack {
			s.MaxStack = len(e.Stack)
		}
		for _, fr := range e.Stack {
			if !fr.Resolved() {
				s.UnresolvedFrames++
			}
		}
	}
	s.Threads = len(threads)
	s.TotalFrames = frames
	if l.Len() > 0 {
		s.AvgStack = float64(frames) / float64(l.Len())
	}
	return s
}

// Span returns the wall-clock duration the log covers.
func (s Stats) Span() time.Duration {
	if s.First.IsZero() || s.Last.IsZero() {
		return 0
	}
	return s.Last.Sub(s.First)
}

// String renders the statistics for diagnostics.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events across %d threads over %v\n", s.Events, s.Threads, s.Span().Round(time.Millisecond))
	fmt.Fprintf(&b, "stack depth: avg %.1f, max %d; unresolved frames: %d/%d\n",
		s.AvgStack, s.MaxStack, s.UnresolvedFrames, s.TotalFrames)
	types := make([]EventType, 0, len(s.ByType))
	for t := range s.ByType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return s.ByType[types[i]] > s.ByType[types[j]] })
	for _, t := range types {
		fmt.Fprintf(&b, "  %-16s %d\n", t, s.ByType[t])
	}
	return b.String()
}
