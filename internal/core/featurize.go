package core

import (
	"errors"
	"slices"

	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/trace"
)

// splitOne partitions a single-event log into the caller's scratch
// arena; a variable so tests can inject partition failures into the
// featurizer's miss path.
var splitOne = partition.SplitInto

// Bounds of one stackMemo. A full memo is emptied and refills. Frames
// are bounded as well as entries because a stack walk has no depth
// limit: at most stackMemoFrames copied frames (40 bytes each) plus
// stackMemoEntries entries and twice as many index slots, about 210 KiB
// per memo in the worst case.
const (
	stackMemoEntries = 1024
	stackMemoFrames  = 4096
)

// stackMemo maps a stack walk to the stack-dependent half of its event's
// tuple — the Lib and Func cluster ids — and to the frames partitioning
// routed to each trace side. It is derived state for one module map and
// one encoder: owners empty it when either changes, and it is never
// checkpointed.
//
// The index is open-addressed over partition.HashWalk, the hash the
// training split keys walks by; a hit is trusted only after the walk's
// frames (address, module and function) compare equal to the private
// copy stored at the miss, so a reused stack buffer or a frame named
// differently from the module map still misses. Entries and frame
// copies live in recycled slabs, so a warm memo allocates nothing.
type stackMemo struct {
	slots   []int32 // entry index + 1, 0 when empty; len is a power of two
	entries []memoEntry
	frames  []trace.Frame // the memoised walks, back to back
}

type memoEntry struct {
	hash     uint64
	off, n   int32 // the walk is frames[off : off+n]
	app, sys int32 // frames in the application and system traces
	lib, fn  int
}

// reset empties the memo, keeping its memory.
func (m *stackMemo) reset() {
	clear(m.slots)
	m.entries = m.entries[:0]
	m.frames = m.frames[:0]
}

// lookup returns the entry memoising w (hashed to h), or nil.
func (m *stackMemo) lookup(h uint64, w trace.StackWalk) *memoEntry {
	if len(m.slots) == 0 {
		return nil
	}
	mask := uint64(len(m.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			return nil
		}
		e := &m.entries[s-1]
		if e.hash == h && slices.Equal(m.frames[e.off:e.off+e.n], w) {
			return e
		}
	}
}

// insert records a walk missing from the memo, copying its frames.
func (m *stackMemo) insert(h uint64, w trace.StackWalk, e memoEntry) {
	if len(w) > stackMemoFrames {
		return
	}
	if len(m.entries) == stackMemoEntries || len(m.frames)+len(w) > stackMemoFrames {
		m.reset()
	}
	if 2*(len(m.entries)+1) > len(m.slots) {
		m.grow()
	}
	e.hash = h
	e.off, e.n = int32(len(m.frames)), int32(len(w))
	m.frames = appendBounded(m.frames, stackMemoFrames, w...)
	m.entries = appendBounded(m.entries, stackMemoEntries, e)
	m.place(h, int32(len(m.entries)))
}

// appendBounded appends to a slab whose length stays within limit,
// doubling its capacity as append would but never past limit, so a full
// memo holds no more memory than its bounds.
func appendBounded[E any](s []E, limit int, v ...E) []E {
	if len(s)+len(v) > cap(s) {
		grown := make([]E, len(s), min(max(2*cap(s), len(s)+len(v)), limit))
		copy(grown, s)
		s = grown
	}
	return append(s, v...)
}

// grow doubles the index and re-places every entry.
func (m *stackMemo) grow() {
	m.slots = make([]int32, max(64, 2*len(m.slots)))
	for i := range m.entries {
		m.place(m.entries[i].hash, int32(i+1))
	}
}

// place stores slot value v in the first free slot of h's probe run.
func (m *stackMemo) place(h uint64, v int32) {
	mask := uint64(len(m.slots) - 1)
	i := h & mask
	for m.slots[i] != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = v
}

// featurizer is the testing phase's per-event front end, the first half
// of StreamDetector's window step: it partitions an event's stack walk
// and encodes the event into its tuple. The stack-dependent half of the
// result is memoised by walk, so a repeated walk skips both partition
// and encoder; a miss runs the reference path (splitOne on a one-event
// log, then EncodeOne) and records its result.
//
// A featurizer belongs to its StreamDetector: Feed uses it under the
// detector's mutex, DetectLog through a pooled detector it owns alone.
type featurizer struct {
	one  trace.Log // one-event log handed to splitOne: the process header plus ev
	ev   [1]trace.Event
	part partition.Scratch
	enc  preprocess.Scratch
	memo stackMemo
	// Telemetry owed since the last flush: the partition volume of memo
	// hits (misses ran SplitInto, which counted itself) and the events
	// encoded, hit or miss.
	hitEvents, hitStackless, hitApp, hitSys int
	encoded                                 int
}

// reset points the featurizer at one process's events and empties the
// memo, which is only valid for one module map and one encoder.
func (f *featurizer) reset(app string, pid int, modules *trace.ModuleMap) {
	f.one = trace.Log{App: app, PID: pid, Modules: modules}
	f.memo.reset()
}

// split partitions one event on the reference path. The result aliases
// the featurizer's scratch until the next split.
func (f *featurizer) split(e *trace.Event) (*partition.Event, error) {
	f.ev[0] = *e
	f.one.Events = f.ev[:]
	part, err := splitOne(&f.one, &f.part)
	if err != nil {
		return nil, err
	}
	if len(part.Events) == 0 {
		return nil, errors.New("partition produced no events")
	}
	return &part.Events[0], nil
}

// tuple featurizes one event, memoised by its stack walk.
func (f *featurizer) tuple(enc *preprocess.Encoder, e *trace.Event) (preprocess.Tuple, error) {
	h := partition.HashWalk(e.Stack)
	if me := f.memo.lookup(h, e.Stack); me != nil {
		f.hitEvents++
		if me.n == 0 {
			f.hitStackless++
		}
		f.hitApp += int(me.app)
		f.hitSys += int(me.sys)
		f.encoded++
		return preprocess.Tuple{EventType: int(e.Type), Lib: me.lib, Func: me.fn}, nil
	}
	pe, err := f.split(e)
	if err != nil {
		return preprocess.Tuple{}, err
	}
	t := enc.EncodeOne(&f.enc, pe)
	f.encoded++
	f.memo.insert(h, e.Stack, memoEntry{
		app: int32(len(pe.AppTrace)), sys: int32(len(pe.SysTrace)),
		lib: t.Lib, fn: t.Func,
	})
	return t, nil
}

// flush credits the telemetry owed since the last flush, so the
// partition and encode counters read as if every event had been split
// and encoded.
func (f *featurizer) flush() {
	if f.hitEvents > 0 {
		partition.CreditSplit(f.hitEvents, f.hitStackless, f.hitApp, f.hitSys)
	}
	if f.encoded > 0 {
		preprocess.CreditEncoded(f.encoded)
	}
	f.hitEvents, f.hitStackless, f.hitApp, f.hitSys, f.encoded = 0, 0, 0, 0, 0
}
