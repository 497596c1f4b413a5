// Package partition implements the paper's Stack Partition Module: it
// splits the stack walk trace of each system event into an application
// stack trace (frames within the application itself, including unresolved
// frames from injected code) and a system stack trace (frames in shared
// libraries and the OS kernel).
//
// Downstream, the application stack trace feeds control-flow-graph
// inference while the system stack trace supplies the features of the
// statistical learning model, because system-level behaviour is what best
// distinguishes benign from malicious functionality.
package partition

import (
	"errors"
	"slices"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Partition telemetry: event volume and stack-walk coverage — the
// "stackless" share is the part of the trace that can feed neither the
// CFG nor the feature extractor.
var (
	mSplitEvents    = telemetry.NewCounter("partition_events_total", "events partitioned into app/system stack traces")
	mSplitStackless = telemetry.NewCounter("partition_stackless_events_total", "partitioned events that carried no stack walk")
	mSplitAppFrames = telemetry.NewCounter("partition_app_frames_total", "frames routed to application stack traces")
	mSplitSysFrames = telemetry.NewCounter("partition_sys_frames_total", "frames routed to system stack traces")
)

// Event is one system event with its stack walk partitioned.
type Event struct {
	// Seq, Type, TID mirror the source event.
	Seq  int
	Type trace.EventType
	TID  int
	// AppTrace holds the frames executing application code: frames inside
	// the application's own image plus unresolved frames (code running
	// from private allocations, i.e. injected payloads). Ordered from the
	// outermost frame down.
	AppTrace trace.StackWalk
	// SysTrace holds the frames in shared libraries and kernel modules,
	// ordered from the outermost library frame down to the kernel leaf.
	SysTrace trace.StackWalk
}

// Log is a partitioned stack-event correlated log.
type Log struct {
	App    string
	PID    int
	Events []Event
	// Walk and First index the events by stack walk, as Split records
	// them: Walk[i] is the id of event i's walk and First[w] the first
	// event carrying walk w, so ids number the distinct walks in
	// first-occurrence order. Events sharing a walk alias one split of
	// it. A log without Walk, such as one built by hand, counts every
	// event as its own walk; a caller that edits Events or their traces
	// must clear both fields.
	Walk  []int32
	First []int32
}

// Len returns the number of partitioned events.
func (l *Log) Len() int { return len(l.Events) }

// indexed reports whether the log's walk index covers its events.
func (l *Log) indexed() bool { return l.Walk != nil && len(l.Walk) == len(l.Events) }

// NumWalks returns the number of walk ids the log's events carry: its
// distinct stack walks, or its event count when it has no walk index.
func (l *Log) NumWalks() int {
	if l.indexed() {
		return len(l.First)
	}
	return len(l.Events)
}

// WalkOf returns the walk id of event i.
func (l *Log) WalkOf(i int) int {
	if l.indexed() {
		return int(l.Walk[i])
	}
	return i
}

// FirstOf returns the index of the first event carrying walk w. Stages
// that depend on an event's stack walk alone compute it for that event
// and reuse it for every later event with the same walk.
func (l *Log) FirstOf(w int) int {
	if l.indexed() {
		return int(l.First[w])
	}
	return w
}

// Gather returns the events of l in the half-open index ranges, in
// order, as one log with l's identity and a walk index of its own that
// numbers the distinct walks among them in first-occurrence order.
func (l *Log) Gather(ranges [][2]int) *Log {
	out := &Log{App: l.App, PID: l.PID}
	ids := make([]int32, l.NumWalks()) // 1 + the walk's id in out; 0 until seen
	for _, r := range ranges {
		for i := r[0]; i < r[1]; i++ {
			w := l.WalkOf(i)
			if ids[w] == 0 {
				out.First = append(out.First, int32(len(out.Events)))
				ids[w] = int32(len(out.First))
			}
			out.Walk = append(out.Walk, ids[w]-1)
			out.Events = append(out.Events, l.Events[i])
		}
	}
	return out
}

// Split partitions every event of the log. Events without a stack walk are
// kept with empty traces so event ordinals remain aligned with the source
// log.
func Split(log *trace.Log) (*Log, error) {
	return SplitInto(log, &Scratch{})
}

// Scratch is the reusable working memory of SplitInto: the partitioned
// event slice, one frame arena per trace side and the walk index. After
// a warm-up call its capacities have converged and further splits of
// similar logs allocate nothing.
//
// Ownership: the Log returned by SplitInto, its events, their app/system
// traces and its walk index all alias the scratch; they are valid only
// until the next SplitInto on the same scratch. Callers that retain
// events past that point must deep-copy the traces
// (trace.StackWalk.Clone). Events sharing a stack walk share its traces,
// so the traces are read-only: a caller that must change one clones it
// first.
type Scratch struct {
	log    Log
	events []Event
	app    trace.StackWalk
	sys    trace.StackWalk
	walk   []int32
	first  []int32
	hashes []uint64 // HashWalk of each distinct walk, by id
	slots  []int32  // walk id + 1, 0 when empty; len is a power of two
}

// SplitInto is Split backed by caller-owned scratch memory, for ingest
// loops that partition one log (often a single event) per iteration.
// Results are byte-identical to Split's; see Scratch for aliasing
// rules.
//
// Each distinct stack walk is split once. An event whose walk equals an
// earlier event's — same frames, compared by address, module and
// function after a HashWalk match — aliases that event's traces, and the
// walk index of the returned Log records which events share a walk.
func SplitInto(log *trace.Log, s *Scratch) (*Log, error) {
	if log == nil {
		return nil, errors.New("partition: nil log")
	}
	if log.Modules == nil {
		return nil, errors.New("partition: log has no module map")
	}
	s.events = slices.Grow(s.events[:0], len(log.Events))
	s.walk = slices.Grow(s.walk[:0], len(log.Events))
	s.app = s.app[:0]
	s.sys = s.sys[:0]
	s.first = s.first[:0]
	s.hashes = s.hashes[:0]
	clear(s.slots)
	var stackless, appFrames, sysFrames int
	for i := range log.Events {
		e := &log.Events[i]
		pe := Event{Seq: e.Seq, Type: e.Type, TID: e.TID}
		h := HashWalk(e.Stack)
		w := s.lookup(h, e.Stack, log.Events)
		if w >= 0 {
			first := &s.events[s.first[w]]
			pe.AppTrace, pe.SysTrace = first.AppTrace, first.SysTrace
		} else {
			w = s.add(h, i)
			pe.AppTrace, pe.SysTrace = s.split(log.Modules, e.Stack)
		}
		if len(e.Stack) == 0 {
			stackless++
		}
		appFrames += len(pe.AppTrace)
		sysFrames += len(pe.SysTrace)
		s.events = append(s.events, pe)
		s.walk = append(s.walk, w)
	}
	CreditSplit(log.Len(), stackless, appFrames, sysFrames)
	s.log = Log{App: log.App, PID: log.PID, Events: s.events, Walk: s.walk, First: s.first}
	return &s.log, nil
}

// split routes one stack walk's frames to the scratch arenas and returns
// the two traces, nil for a side without frames.
func (s *Scratch) split(mm *trace.ModuleMap, stack trace.StackWalk) (app, sys trace.StackWalk) {
	appStart, sysStart := len(s.app), len(s.sys)
	for _, fr := range stack {
		if isSystemFrame(mm, fr) {
			s.sys = append(s.sys, fr)
		} else {
			s.app = append(s.app, fr)
		}
	}
	// Arena growth copies the in-flight frames to the new backing, so
	// index-based subslicing stays correct; earlier walks keep aliasing
	// the old backing, which append never mutates.
	if len(s.app) > appStart {
		app = s.app[appStart:len(s.app):len(s.app)]
	}
	if len(s.sys) > sysStart {
		sys = s.sys[sysStart:len(s.sys):len(s.sys)]
	}
	return app, sys
}

// HashWalk hashes a stack walk's frame addresses. Equal walks hash
// equal; a walk-keyed index trusts a hash match only after comparing the
// frames, so walks that share addresses but not names stay apart.
func HashWalk(w trace.StackWalk) uint64 {
	h := uint64(len(w))
	for i := range w {
		h = (h ^ w[i].Addr) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 31
	h *= 0x7fb5d329728ea185
	return h ^ h>>27
}

// lookup returns the id of the indexed walk equal to stack (hashed to
// h), or -1. A walk's frames are those of its first event in events.
func (s *Scratch) lookup(h uint64, stack trace.StackWalk, events []trace.Event) int32 {
	if len(s.slots) == 0 {
		return -1
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := s.slots[i]
		if v == 0 {
			return -1
		}
		if w := v - 1; s.hashes[w] == h && slices.Equal(events[s.first[w]].Stack, stack) {
			return w
		}
	}
}

// add indexes a new walk, hashed to h, first carried by event i, and
// returns its id.
func (s *Scratch) add(h uint64, i int) int32 {
	w := int32(len(s.first))
	s.first = append(s.first, int32(i))
	s.hashes = append(s.hashes, h)
	if 2*len(s.first) > len(s.slots) {
		s.slots = make([]int32, max(64, 2*len(s.slots)))
		for id, hh := range s.hashes {
			s.place(hh, int32(id))
		}
	} else {
		s.place(h, w)
	}
	return w
}

// place stores walk id w in the first free slot of h's probe run.
func (s *Scratch) place(h uint64, w int32) {
	mask := uint64(len(s.slots) - 1)
	i := h & mask
	for s.slots[i] != 0 {
		i = (i + 1) & mask
	}
	s.slots[i] = w + 1
}

// CreditSplit adds a split's volume to the partition counters without
// splitting, for callers that memoise SplitInto's result per stack walk
// and must still count every event they partition: events, those
// without a stack walk, and the frames routed to each trace side.
func CreditSplit(events, stackless, appFrames, sysFrames int) {
	mSplitEvents.Add(uint64(events))
	mSplitStackless.Add(uint64(stackless))
	mSplitAppFrames.Add(uint64(appFrames))
	mSplitSysFrames.Add(uint64(sysFrames))
}

// isSystemFrame reports whether a frame belongs to the system stack trace:
// it resolved into a shared library or kernel module. Frames in the
// application image and unresolved frames (injected code) are application
// frames.
func isSystemFrame(mm *trace.ModuleMap, fr trace.Frame) bool {
	m := mm.Locate(fr.Addr)
	if m == nil {
		return false
	}
	return m.Kind == trace.ModuleSharedLib || m.Kind == trace.ModuleKernel
}
