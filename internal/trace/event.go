// Package trace defines the core datatypes shared by every LEAPS module:
// system events, stack-walk frames, module maps and event logs.
//
// The shapes here mirror what a stack-walking system event logger (the
// paper uses Event Tracing for Windows) emits after the raw-log parsing
// stage: a stream of typed system events, each annotated with the stack
// walk that led to it, where every frame carries a return address and, once
// resolved against the module map, a module and function name.
package trace

import (
	"fmt"
	"time"
)

// EventType identifies the kind of system event captured by the logging
// engine. The set follows the event classes ETW exposes for stack walking
// (system calls, process/thread lifecycle, image loads, file operations,
// registry tracing, network operations).
type EventType int

// Recognised system event types.
const (
	EventUnknown EventType = iota
	EventSysCallEnter
	EventSysCallExit
	EventProcessCreate
	EventProcessExit
	EventThreadCreate
	EventThreadExit
	EventImageLoad
	EventImageUnload
	EventFileCreate
	EventFileRead
	EventFileWrite
	EventFileDelete
	EventRegistryRead
	EventRegistryWrite
	EventNetConnect
	EventNetSend
	EventNetRecv
	EventNetDisconnect
	EventMemAlloc
	EventMemFree
	EventUIMessage

	// eventTypeCount is the number of event types including EventUnknown.
	eventTypeCount
)

var eventTypeNames = [...]string{
	EventUnknown:       "Unknown",
	EventSysCallEnter:  "SysCallEnter",
	EventSysCallExit:   "SysCallExit",
	EventProcessCreate: "ProcessCreate",
	EventProcessExit:   "ProcessExit",
	EventThreadCreate:  "ThreadCreate",
	EventThreadExit:    "ThreadExit",
	EventImageLoad:     "ImageLoad",
	EventImageUnload:   "ImageUnload",
	EventFileCreate:    "FileCreate",
	EventFileRead:      "FileRead",
	EventFileWrite:     "FileWrite",
	EventFileDelete:    "FileDelete",
	EventRegistryRead:  "RegistryRead",
	EventRegistryWrite: "RegistryWrite",
	EventNetConnect:    "NetConnect",
	EventNetSend:       "NetSend",
	EventNetRecv:       "NetRecv",
	EventNetDisconnect: "NetDisconnect",
	EventMemAlloc:      "MemAlloc",
	EventMemFree:       "MemFree",
	EventUIMessage:     "UIMessage",
}

// NumEventTypes reports how many distinct event types exist, including
// EventUnknown. Feature encoders use it to size one-hot or integer spaces.
func NumEventTypes() int { return int(eventTypeCount) }

// String returns the canonical name of the event type.
func (t EventType) String() string {
	if t < 0 || int(t) >= len(eventTypeNames) {
		return fmt.Sprintf("EventType(%d)", int(t))
	}
	return eventTypeNames[t]
}

// Valid reports whether t is a known event type other than EventUnknown.
func (t EventType) Valid() bool {
	return t > EventUnknown && int(t) < len(eventTypeNames)
}

// ParseEventType maps a canonical name back to its EventType. It returns
// EventUnknown and false when the name is not recognised.
func ParseEventType(name string) (EventType, bool) {
	for i, n := range eventTypeNames {
		if n == name && EventType(i) != EventUnknown {
			return EventType(i), true
		}
	}
	return EventUnknown, false
}

// Frame is a single entry of a stack walk. Addr is the instruction address
// recorded by the logger; Module and Function are filled in when the frame
// is resolved against a ModuleMap and are empty for unresolved frames
// (e.g. code running from dynamically allocated memory).
type Frame struct {
	Addr     uint64
	Module   string
	Function string
}

// Resolved reports whether the frame was attributed to a known module.
func (f Frame) Resolved() bool { return f.Module != "" }

// String renders the frame as "module!function@0xADDR", matching the
// notation used in stack-walk dumps.
func (f Frame) String() string {
	if !f.Resolved() {
		return fmt.Sprintf("?!?@0x%x", f.Addr)
	}
	return fmt.Sprintf("%s!%s@0x%x", f.Module, f.Function, f.Addr)
}

// StackWalk is the call stack captured when an event fired, ordered from
// the outermost application frame (index 0) to the innermost system frame
// (last index). This is the orientation used throughout the paper's
// figures: application code at the top, shared libraries and kernel at the
// bottom.
type StackWalk []Frame

// Bounds of a session-lifetime cache of stack walks: serve's
// per-session resolution cache and a detector's walk table. A stack walk
// has no depth limit on the wire, so frames are bounded as well as
// walks: a full cache is emptied and refills, and a walk deeper than
// CacheFrames is never kept past its event.
const (
	CacheWalks  = 1024
	CacheFrames = 4096
)

// Clone returns a deep copy of the stack walk. Callers that retain stacks
// across mutations of the source log should clone at the boundary.
func (s StackWalk) Clone() StackWalk {
	if s == nil {
		return nil
	}
	out := make(StackWalk, len(s))
	copy(out, s)
	return out
}

// Addrs returns the frame addresses in stack order.
func (s StackWalk) Addrs() []uint64 {
	out := make([]uint64, len(s))
	for i, f := range s {
		out[i] = f.Addr
	}
	return out
}

// Event is one itemised system event from the stack-event correlated log:
// a typed event attached to the stack walk that produced it.
type Event struct {
	// Seq is the event's ordinal in its log, assigned by the parser.
	Seq int
	// Type is the system event type.
	Type EventType
	// Time is the capture timestamp.
	Time time.Time
	// PID and TID identify the emitting process and thread.
	PID int
	TID int
	// Stack is the correlated stack walk (application frames first).
	Stack StackWalk
}

// Clone returns a deep copy of the event.
func (e Event) Clone() Event {
	out := e
	out.Stack = e.Stack.Clone()
	return out
}

// Log is a stack-event correlated log for a single process: the parsed,
// per-application slice of the raw system event log.
type Log struct {
	// App is the name of the application of interest (its main image).
	App string
	// PID is the process the log was sliced for.
	PID int
	// Modules maps address ranges to the modules loaded in the process.
	Modules *ModuleMap
	// Events are the itemised events in capture order.
	Events []Event
}

// Len returns the number of events in the log.
func (l *Log) Len() int { return len(l.Events) }

// Clone returns a deep copy of the log. The module map is shared, as it is
// immutable after construction.
func (l *Log) Clone() *Log {
	out := &Log{App: l.App, PID: l.PID, Modules: l.Modules}
	out.Events = make([]Event, len(l.Events))
	for i, e := range l.Events {
		out.Events[i] = e.Clone()
	}
	return out
}

// CountTypes tallies events by type.
func (l *Log) CountTypes() map[EventType]int {
	out := make(map[EventType]int)
	for _, e := range l.Events {
		out[e.Type]++
	}
	return out
}
