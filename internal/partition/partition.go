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
// log. Each distinct stack walk is split once, through a Walks table:
// events sharing a walk alias its split, and the returned Log's walk
// index records which events share one.
func Split(log *trace.Log) (*Log, error) {
	if log == nil {
		return nil, errors.New("partition: nil log")
	}
	if log.Modules == nil {
		return nil, errors.New("partition: log has no module map")
	}
	var t Walks
	out := &Log{App: log.App, PID: log.PID, Events: make([]Event, len(log.Events)), Walk: make([]int32, len(log.Events))}
	var stackless, appFrames, sysFrames int
	for i := range log.Events {
		e, pe := &log.Events[i], &out.Events[i]
		*pe = Event{Seq: e.Seq, Type: e.Type, TID: e.TID}
		w, fresh := t.Walk(log.Modules, e.Stack)
		if fresh {
			out.First = append(out.First, int32(i))
			pe.AppTrace, pe.SysTrace = t.Traces(w)
		} else {
			first := &out.Events[out.First[w]]
			pe.AppTrace, pe.SysTrace = first.AppTrace, first.SysTrace
		}
		out.Walk[i] = int32(w)
		if len(e.Stack) == 0 {
			stackless++
		}
		appFrames += len(pe.AppTrace)
		sysFrames += len(pe.SysTrace)
	}
	CreditSplit(log.Len(), stackless, appFrames, sysFrames)
	return out, nil
}

// Walks is the one table of distinct stack walks, behind the training
// split and the testing-phase featurizer alike: every stack feature
// depends on the walk alone, so each walk is split once, at its first
// lookup, and given the next id, numbering the walks in first-occurrence
// order. Split fills one table per log; a detector keeps one across
// events and empties it at its bounds (trace.CacheWalks,
// trace.CacheFrames).
//
// The index is open-addressed over hashWalk. A hash match is trusted
// only after the walk's frames — address, module and function — equal
// the table's own copy of the walk, so a forced collision, a reused
// stack buffer or a frame named differently from the module map still
// misses, and the table can outlive the events that filled it. Walks,
// their traces and the entries live in slabs that Reset truncates, so a
// warm table allocates nothing. The traces Traces returns alias the
// frame slab: they are read-only and valid until the next Reset.
type Walks struct {
	slots   []int32 // walk id + 1, 0 when empty; len is a power of two
	entries []walkEntry
	// frames holds each indexed walk, then its application trace, then
	// its system trace: twice as many frames as the walks hold.
	frames trace.StackWalk
}

// walkEntry locates one indexed walk in the frame slab: the walk is
// frames[off:off+n], its application trace the next app frames and its
// system trace the n-app frames after those.
type walkEntry struct {
	hash        uint64
	off, n, app int32
}

// Walk returns the id of stack's walk and whether this call indexed it:
// on a miss it copies the walk into the table, splits it over mm and
// gives it the next id.
func (t *Walks) Walk(mm *trace.ModuleMap, stack trace.StackWalk) (id int, fresh bool) {
	h := hashWalk(stack)
	if id := t.lookup(h, stack); id >= 0 {
		return id, false
	}
	off, n := len(t.frames), len(stack)
	t.frames = append(append(t.frames, stack...), stack...)
	// Application frames fill the split from the front and system
	// frames from the back, reversed into order after.
	split := t.frames[off+n:]
	app, sys := 0, n
	for _, fr := range stack {
		if isSystemFrame(mm, fr) {
			sys--
			split[sys] = fr
		} else {
			split[app] = fr
			app++
		}
	}
	slices.Reverse(split[app:])
	id = len(t.entries)
	t.entries = append(t.entries, walkEntry{hash: h, off: int32(off), n: int32(n), app: int32(app)})
	if 2*len(t.entries) > len(t.slots) {
		t.slots = make([]int32, max(64, 2*len(t.slots)))
		for i := range t.entries {
			t.place(t.entries[i].hash, i)
		}
	} else {
		t.place(h, id)
	}
	return id, true
}

// Traces returns walk id's application and system traces, nil for a
// side without frames.
func (t *Walks) Traces(id int) (app, sys trace.StackWalk) {
	e := &t.entries[id]
	split := e.off + e.n
	return t.span(split, e.app), t.span(split+e.app, e.n-e.app)
}

// span returns the n frames of the slab at off, nil when n is 0.
func (t *Walks) span(off, n int32) trace.StackWalk {
	if n == 0 {
		return nil
	}
	return t.frames[off : off+n : off+n]
}

// Len returns the number of walks indexed.
func (t *Walks) Len() int { return len(t.entries) }

// Frames returns the number of frames the indexed walks hold; the table
// holds their traces as well, twice as many frames in all.
func (t *Walks) Frames() int { return len(t.frames) / 2 }

// Reset empties the table, keeping its memory.
func (t *Walks) Reset() {
	clear(t.slots)
	t.entries, t.frames = t.entries[:0], t.frames[:0]
}

// hashWalk hashes a stack walk's frame addresses. Equal walks hash
// equal; the table trusts a hash match only after comparing the frames,
// so walks that share addresses but not names stay apart.
func hashWalk(w trace.StackWalk) uint64 {
	h := uint64(len(w))
	for i := range w {
		h = (h ^ w[i].Addr) * 0x9e3779b97f4a7c15
	}
	h ^= h >> 31
	h *= 0x7fb5d329728ea185
	return h ^ h>>27
}

// lookup returns the id of the indexed walk equal to stack (hashed to
// h), or -1.
func (t *Walks) lookup(h uint64, stack trace.StackWalk) int {
	if len(t.slots) == 0 {
		return -1
	}
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := t.slots[i]
		if v == 0 {
			return -1
		}
		if e := &t.entries[v-1]; e.hash == h && slices.Equal(t.frames[e.off:e.off+e.n], stack) {
			return int(v - 1)
		}
	}
}

// place stores walk id in the first free slot of h's probe run.
func (t *Walks) place(h uint64, id int) {
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = int32(id + 1)
}

// CreditSplit adds a split's volume to the partition counters: events,
// those without a stack walk, and the frames routed to each trace side.
// Split credits each log once; callers that partition through a Walks
// table of their own batch their events' volume here.
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
