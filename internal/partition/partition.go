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
}

// Len returns the number of partitioned events.
func (l *Log) Len() int { return len(l.Events) }

// Split partitions every event of the log. Events without a stack walk are
// kept with empty traces so event ordinals remain aligned with the source
// log.
func Split(log *trace.Log) (*Log, error) {
	return SplitInto(log, &Scratch{})
}

// Scratch is the reusable working memory of SplitInto: the partitioned
// event slice plus one frame arena per trace side. After a warm-up call
// its capacities have converged and further splits of similar logs
// allocate nothing.
//
// Ownership: the Log returned by SplitInto, its events and their
// app/system traces all alias the scratch; they are valid only until
// the next SplitInto on the same scratch. Callers that retain events
// past that point must deep-copy the traces (trace.StackWalk.Clone).
type Scratch struct {
	log    Log
	events []Event
	app    trace.StackWalk
	sys    trace.StackWalk
}

// SplitInto is Split backed by caller-owned scratch memory, for ingest
// loops that partition one log (often a single event) per iteration.
// Results are byte-identical to Split's; see Scratch for aliasing
// rules.
func SplitInto(log *trace.Log, s *Scratch) (*Log, error) {
	if log == nil {
		return nil, errors.New("partition: nil log")
	}
	if log.Modules == nil {
		return nil, errors.New("partition: log has no module map")
	}
	s.events = s.events[:0]
	s.app = s.app[:0]
	s.sys = s.sys[:0]
	var stackless, appFrames, sysFrames int
	for i := range log.Events {
		e := &log.Events[i]
		pe := Event{Seq: e.Seq, Type: e.Type, TID: e.TID}
		if len(e.Stack) == 0 {
			stackless++
		}
		appStart, sysStart := len(s.app), len(s.sys)
		for _, fr := range e.Stack {
			if isSystemFrame(log.Modules, fr) {
				s.sys = append(s.sys, fr)
			} else {
				s.app = append(s.app, fr)
			}
		}
		// Arena growth copies the in-flight frames to the new backing,
		// so index-based subslicing stays correct; earlier events keep
		// aliasing the old backing, which append never mutates.
		if len(s.app) > appStart {
			pe.AppTrace = s.app[appStart:len(s.app):len(s.app)]
		}
		if len(s.sys) > sysStart {
			pe.SysTrace = s.sys[sysStart:len(s.sys):len(s.sys)]
		}
		appFrames += len(pe.AppTrace)
		sysFrames += len(pe.SysTrace)
		s.events = append(s.events, pe)
	}
	CreditSplit(log.Len(), stackless, appFrames, sysFrames)
	s.log = Log{App: log.App, PID: log.PID, Events: s.events}
	return &s.log, nil
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

// LibSet returns the set of distinct library/kernel module names in the
// event's system stack trace.
func (e *Event) LibSet() map[string]bool {
	out := make(map[string]bool, len(e.SysTrace))
	for _, fr := range e.SysTrace {
		if fr.Module != "" {
			out[fr.Module] = true
		}
	}
	return out
}

// FuncSet returns the set of distinct module-qualified function names in
// the event's system stack trace.
func (e *Event) FuncSet() map[string]bool {
	out := make(map[string]bool, len(e.SysTrace))
	for _, fr := range e.SysTrace {
		if fr.Function != "" {
			out[fr.Module+"!"+fr.Function] = true
		}
	}
	return out
}
