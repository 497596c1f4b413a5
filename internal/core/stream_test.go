package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"slices"
	"testing"

	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/trace"
)

// TestStreamMatchesBatch feeds a log and runs DetectLog on it; since
// DetectLog runs the stream's window loop, both are held to the
// reference path rather than to each other.
func TestStreamMatchesBatch(t *testing.T) {
	clf, mal := trainStream(t, 21)
	want := referenceDetect(t, clf, mal)
	batch, err := clf.DetectLog(mal)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(batch, want) {
		t.Fatalf("DetectLog differs from the reference (%d vs %d detections)", len(batch), len(want))
	}
	stream, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	if streamed := feedAll(t, stream, mal.Events); !slices.Equal(streamed, want) {
		t.Fatalf("Feed differs from the reference (%d vs %d detections)", len(streamed), len(want))
	}
	if stream.Pending() != len(mal.Events)%clf.window {
		t.Errorf("Pending() = %d after full drain, want %d", stream.Pending(), len(mal.Events)%clf.window)
	}
}

// trainStream builds a classifier for streaming tests.
func trainStream(t testing.TB, seed int64) (*Classifier, *trace.Log) {
	t.Helper()
	logs := genLogs(t, "vim_reverse_tcp", seed)
	td, err := BuildTrainingData(logs.Benign, logs.Mixed, fastConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		t.Fatal(err)
	}
	return clf, logs.Malicious
}

// failEvent returns a copy of events in which the featurizer's miss
// path fails events[i], matched by Seq, until the test ends. A walk the
// table already holds never reaches the miss path, so the copy gives
// events[i] a stack walk no other event has: its own under one extra
// unresolved frame. The event is skipped, so the extra frame reaches no
// window.
func failEvent(t *testing.T, events []trace.Event, i int, err error) []trace.Event {
	t.Helper()
	out := slices.Clone(events)
	out[i].Stack = append(trace.StackWalk{{Addr: 1}}, events[i].Stack...)
	seq := out[i].Seq
	prev := missFault
	missFault = func(e trace.Event) error {
		if e.Seq == seq {
			return err
		}
		return nil
	}
	t.Cleanup(func() { missFault = prev })
	return out
}

func TestStreamFeedRecoversFromEventError(t *testing.T) {
	clf, mal := trainStream(t, 23)
	stream, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}

	// Fail partitioning for exactly one event mid-stream, keyed by the
	// event's Seq: table hits skip the miss path, so call counts do not
	// line up with events.
	failAt := 3
	injected := errors.New("boom")
	events := failEvent(t, mal.Events[:3*clf.window], failAt, injected)

	var dets int
	for i, e := range events {
		det, err := stream.Feed(e)
		if i == failAt {
			var evErr *EventError
			if !errors.As(err, &evErr) {
				t.Fatalf("event %d: got %v, want *EventError", i, err)
			}
			if evErr.Ordinal != failAt || !errors.Is(err, injected) {
				t.Fatalf("EventError = %+v", evErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if det != nil {
			dets++
		}
	}
	if dets == 0 {
		t.Error("no detections after recovering from a mid-window error")
	}
	if stream.Skipped() != 1 {
		t.Errorf("Skipped() = %d, want 1", stream.Skipped())
	}
	if stream.Consumed() != 3*clf.window {
		t.Errorf("Consumed() = %d, want %d", stream.Consumed(), 3*clf.window)
	}
}

func TestStreamWindowAlignmentWithSkips(t *testing.T) {
	clf, mal := trainStream(t, 24)
	stream, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}

	// The 4th event fed is skipped: the first window then spans
	// window+1 stream ordinals.
	events := failEvent(t, mal.Events[:clf.window+1], 3, errors.New("skip me"))

	var det *Detection
	for _, e := range events {
		d, err := stream.Feed(e)
		var evErr *EventError
		if err != nil && !errors.As(err, &evErr) {
			t.Fatal(err)
		}
		if d != nil {
			det = d
		}
	}
	if det == nil {
		t.Fatal("no detection after window+1 events with one skip")
	}
	if det.FirstEvent != 0 || det.LastEvent != clf.window {
		t.Errorf("window spans events %d-%d, want 0-%d (skip widens the span)",
			det.FirstEvent, det.LastEvent, clf.window)
	}
	if stream.Pending() != 0 {
		t.Errorf("Pending() = %d after completed window", stream.Pending())
	}
}

func TestStreamCheckpointRestoreMatchesUninterrupted(t *testing.T) {
	clf, mal := trainStream(t, 25)
	n := 5 * clf.window
	events := mal.Events[:n]

	// Uninterrupted reference run.
	ref, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	var want []Detection
	for _, e := range events {
		det, err := ref.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if det != nil {
			want = append(want, *det)
		}
	}

	// Interrupted run: checkpoint mid-window, restore, continue.
	cut := 2*clf.window + 3
	s1, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	var got []Detection
	for _, e := range events[:cut] {
		det, err := s1.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if det != nil {
			got = append(got, *det)
		}
	}
	var ckpt bytes.Buffer
	if err := s1.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	s2, err := clf.RestoreStream(mal.Modules, &ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Consumed() != cut || s2.Pending() != 3 {
		t.Fatalf("restored state: consumed %d pending %d, want %d / 3",
			s2.Consumed(), s2.Pending(), cut)
	}
	for _, e := range events[cut:] {
		det, err := s2.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if det != nil {
			got = append(got, *det)
		}
	}

	if len(got) != len(want) {
		t.Fatalf("interrupted run produced %d detections, uninterrupted %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("detection %d: interrupted %+v vs uninterrupted %+v", i, got[i], want[i])
		}
	}
}

func TestStreamRestoreRejectsBadCheckpoints(t *testing.T) {
	clf, mal := trainStream(t, 26)
	if _, err := clf.RestoreStream(mal.Modules, bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage checkpoint accepted")
	}

	// A checkpoint from a degraded detector must not restore into a
	// statistical one.
	deg := &StreamDetector{cg: clf.CallGraph(), window: clf.window}
	var ckpt bytes.Buffer
	if err := deg.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := clf.RestoreStream(mal.Modules, &ckpt); err == nil {
		t.Error("degraded checkpoint restored into statistical detector")
	}

	// Window mismatch.
	other := &StreamDetector{clf: clf, window: clf.window + 1}
	ckpt.Reset()
	if err := other.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if _, err := clf.RestoreStream(mal.Modules, &ckpt); err == nil {
		t.Error("window-mismatched checkpoint accepted")
	}
}

// encodeCheckpoint gob-encodes a checkpoint as Checkpoint would.
func encodeCheckpoint(t testing.TB, f checkpointFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// restoreCases are hand-built checkpoints for a window-10 detector:
// consistent states and the inconsistent ones restore must reject.
var restoreCases = []struct {
	name   string
	f      checkpointFile
	accept bool
}{
	{"empty", checkpointFile{}, true},
	{"open window", checkpointFile{Consumed: 7, Skipped: 1, WinStart: 2, Tuples: make([]preprocess.Tuple, 4)}, true},
	{"closed window ignores its start", checkpointFile{Consumed: 5, WinStart: 1000}, true},
	{"degraded open window", checkpointFile{Degraded: true, Consumed: 3, WinStart: 1, Events: make([]partition.Event, 2)}, true},
	{"buffer past consumed", checkpointFile{Consumed: 0, WinStart: -7, Tuples: make([]preprocess.Tuple, 5)}, false},
	{"buffer past unskipped", checkpointFile{Consumed: 6, Skipped: 3, Tuples: make([]preprocess.Tuple, 4)}, false},
	{"negative window start", checkpointFile{Consumed: 7, WinStart: -1, Tuples: make([]preprocess.Tuple, 3)}, false},
	{"window start past consumed", checkpointFile{Consumed: 5, WinStart: 1000, Tuples: make([]preprocess.Tuple, 3)}, false},
	{"window start after its events", checkpointFile{Consumed: 7, WinStart: 4, Tuples: make([]preprocess.Tuple, 4)}, false},
	{"degraded events in statistical mode", checkpointFile{Consumed: 5, WinStart: 3, Events: make([]partition.Event, 2)}, false},
	{"tuples in degraded mode", checkpointFile{Degraded: true, Consumed: 5, WinStart: 3, Tuples: make([]preprocess.Tuple, 2)}, false},
}

// TestStreamRestoreValidatesState restores each restoreCases checkpoint
// into a detector of its mode. Accepted ones must finish their open
// window on the events fed next, spanning only fed ordinals.
func TestStreamRestoreValidatesState(t *testing.T) {
	clf, mal := trainStream(t, 27)
	if clf.window != 10 {
		t.Fatalf("window %d; restoreCases assume 10", clf.window)
	}
	degraded := &Monitor{cg: clf.cg, window: clf.window}
	for _, c := range restoreCases {
		t.Run(c.name, func(t *testing.T) {
			f := c.f
			f.Magic, f.Version, f.Window = checkpointMagic, checkpointVersion, clf.window
			mon := NewMonitor(clf)
			if f.Degraded {
				mon = degraded
			}
			s, err := mon.RestoreStream(mal.Modules, bytes.NewReader(encodeCheckpoint(t, f)))
			if (err == nil) != c.accept {
				t.Fatalf("restore err = %v, want accept %v", err, c.accept)
			}
			if err != nil {
				return
			}
			checkNextWindow(t, s, mal.Events)
		})
	}
}

// checkNextWindow feeds s until its open window completes and checks the
// detection spans fed ordinals only: it ends at the last event fed and
// starts at least a window before.
func checkNextWindow(t *testing.T, s *StreamDetector, events []trace.Event) {
	t.Helper()
	need := s.window - s.Pending()
	var det *Detection
	for _, e := range events[:need] {
		d, err := s.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		det = d
	}
	if det == nil {
		t.Fatalf("no detection after feeding the %d events the open window lacked", need)
	}
	last := s.Consumed() - 1
	if det.LastEvent != last || det.FirstEvent < 0 || det.FirstEvent > last-s.window+1 {
		t.Fatalf("detection spans events %d..%d, want a start in [0, %d] and end %d",
			det.FirstEvent, det.LastEvent, last-s.window+1, last)
	}
}

// FuzzRestoreStream feeds arbitrary bytes to RestoreStream, as a handoff
// import does with an HTTP body. No input may panic; an accepted one must
// give a detector whose Checkpoint decodes to the same checkpointFile
// and whose open window completes over fed ordinals only.
func FuzzRestoreStream(f *testing.F) {
	clf, mal := trainStream(f, 28)
	mons := []*Monitor{NewMonitor(clf), {cg: clf.cg, window: clf.window}}
	for _, mon := range mons {
		for _, n := range []int{0, 3, 13} {
			s, err := mon.Stream(mal.Modules)
			if err != nil {
				f.Fatal(err)
			}
			for _, e := range mal.Events[:n] {
				if _, err := s.Feed(e); err != nil {
					f.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	for _, c := range restoreCases {
		cf := c.f
		cf.Magic, cf.Version, cf.Window = checkpointMagic, checkpointVersion, clf.window
		f.Add(encodeCheckpoint(f, cf))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mon := range mons {
			s, err := mon.RestoreStream(mal.Modules, bytes.NewReader(data))
			if err != nil {
				continue
			}
			var in, out checkpointFile
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
				t.Fatalf("restore accepted an undecodable checkpoint: %v", err)
			}
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if !sameCheckpoint(in, out) {
				t.Fatalf("restored checkpoint re-encodes differently:\n in  %+v\n out %+v", in, out)
			}
			checkNextWindow(t, s, mal.Events)
		}
	})
}

// sameCheckpoint compares checkpoints by value, not telling a nil
// buffer from an empty one: gob does not either.
func sameCheckpoint(a, b checkpointFile) bool {
	return a.Magic == b.Magic && a.Version == b.Version && a.Window == b.Window &&
		a.Degraded == b.Degraded && a.Consumed == b.Consumed && a.Skipped == b.Skipped &&
		a.WinStart == b.WinStart && slices.Equal(a.Tuples, b.Tuples) &&
		slices.EqualFunc(a.Events, b.Events, func(x, y partition.Event) bool {
			return x.Seq == y.Seq && x.Type == y.Type && x.TID == y.TID &&
				slices.Equal(x.AppTrace, y.AppTrace) && slices.Equal(x.SysTrace, y.SysTrace)
		})
}

func TestStreamValidation(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 22)
	td, err := BuildTrainingData(logs.Benign, logs.Mixed, fastConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	clf, err := td.Train()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Stream(nil); err == nil {
		t.Error("nil module map accepted")
	}
}

// TestStreamFeedSteadyStateAllocs pins the ingest hot path: once the
// detector's scratch arenas and interning maps are warm, feeding events
// allocates nothing except the Detection returned per completed window.
func TestStreamFeedSteadyStateAllocs(t *testing.T) {
	clf, mal := trainStream(t, 29)
	stream, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up on the full stream so every module and function name the
	// log can produce is already interned.
	for _, e := range mal.Events {
		if _, err := stream.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	windows := float64(len(mal.Events)/clf.window + 2)
	allocs := testing.AllocsPerRun(5, func() {
		for _, e := range mal.Events {
			if _, err := stream.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > windows {
		t.Errorf("Feed of %d warm events allocated %.0f times, want <= %.0f (one Detection per window)",
			len(mal.Events), allocs, windows)
	}
}
