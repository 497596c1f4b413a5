package core

import (
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/trace"
)

// missFault is the test seam on the featurizer's miss path: it may fail
// an event whose stack walk the table has just indexed, which no real
// walk does. A failed miss empties the table, dropping the walk with it.
var missFault = func(trace.Event) error { return nil }

// featurizer is the testing phase's per-event front end, the first half
// of StreamDetector's window step. It partitions an event's stack walk
// through a partition.Walks table, so a repeated walk is looked up, not
// split again, and in statistical mode it encodes the event into its
// tuple: the stack-dependent half, the Lib and Func cluster ids, is
// encoded once per walk id and kept in codes.
//
// The table is derived state for one module map and one encoder: reset
// empties it when either changes, and it is never checkpointed. It is
// bounded by trace.CacheWalks walks and trace.CacheFrames frames; a
// full table is emptied and refills, and a walk deeper than the frame
// bound is dropped, with the memory it grew, at the next event.
//
// A featurizer belongs to its StreamDetector: Feed uses it under the
// detector's mutex, DetectLog through a pooled detector it owns alone.
type featurizer struct {
	mm    *trace.ModuleMap
	walks partition.Walks
	codes []walkCode // by walk id, statistical mode only
	enc   preprocess.Scratch
	// Telemetry owed since the last flush: the partition volume of the
	// events looked up and the events encoded.
	events, stackless, app, sys int
	encoded                     int
}

// walkCode is the stack-dependent half of a walk's tuple.
type walkCode struct{ lib, fn int }

// reset points the featurizer at one process's events and empties the
// table, which is only valid for one module map and one encoder.
func (f *featurizer) reset(modules *trace.ModuleMap) {
	f.mm = modules
	f.walks.Reset()
	f.codes = f.codes[:0]
}

// walk returns the table id of e's stack walk, splitting and indexing
// the walk on a miss, which it reports as fresh.
func (f *featurizer) walk(e *trace.Event) (id int, fresh bool, err error) {
	switch frames := f.walks.Frames(); {
	case frames > trace.CacheFrames:
		// The previous event's walk was deeper than the bound.
		f.walks = partition.Walks{}
	case f.walks.Len() == trace.CacheWalks || frames+len(e.Stack) > trace.CacheFrames:
		f.walks.Reset()
	}
	id, fresh = f.walks.Walk(f.mm, e.Stack)
	if fresh {
		if err := missFault(*e); err != nil {
			f.walks.Reset()
			return 0, false, err
		}
	}
	app, sys := f.walks.Traces(id)
	f.events++
	if len(e.Stack) == 0 {
		f.stackless++
	}
	f.app += len(app)
	f.sys += len(sys)
	return id, fresh, nil
}

// event partitions e for call-graph scoring. Its traces alias the
// table, which a later event may reset: a caller that keeps them
// copies them.
func (f *featurizer) event(e *trace.Event) (partition.Event, error) {
	id, _, err := f.walk(e)
	if err != nil {
		return partition.Event{}, err
	}
	pe := partition.Event{Seq: e.Seq, Type: e.Type, TID: e.TID}
	pe.AppTrace, pe.SysTrace = f.walks.Traces(id)
	return pe, nil
}

// tuple featurizes e, encoding its walk only when the table first
// indexes it.
func (f *featurizer) tuple(enc *preprocess.Encoder, e *trace.Event) (preprocess.Tuple, error) {
	id, fresh, err := f.walk(e)
	if err != nil {
		return preprocess.Tuple{}, err
	}
	if fresh {
		var pe partition.Event
		pe.AppTrace, pe.SysTrace = f.walks.Traces(id)
		t := enc.EncodeOne(&f.enc, &pe)
		f.codes = append(f.codes[:id], walkCode{t.Lib, t.Func})
	}
	f.encoded++
	c := f.codes[id]
	return preprocess.Tuple{EventType: int(e.Type), Lib: c.lib, Func: c.fn}, nil
}

// flush credits the telemetry owed since the last flush, so the
// partition and encode counters read as if every event had been split
// and encoded on its own.
func (f *featurizer) flush() {
	if f.events > 0 {
		partition.CreditSplit(f.events, f.stackless, f.app, f.sys)
	}
	if f.encoded > 0 {
		preprocess.CreditEncoded(f.encoded)
	}
	f.events, f.stackless, f.app, f.sys, f.encoded = 0, 0, 0, 0, 0
}
