package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// referenceTuples featurizes every event on its own: Split on a
// one-event log, then EncodeOne, with fresh scratch per event.
func referenceTuples(t *testing.T, enc *preprocess.Encoder, log *trace.Log) []preprocess.Tuple {
	t.Helper()
	out := make([]preprocess.Tuple, len(log.Events))
	for i := range log.Events {
		one := trace.Log{App: log.App, PID: log.PID, Modules: log.Modules, Events: log.Events[i : i+1]}
		part, err := partition.Split(&one)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = enc.EncodeOne(&preprocess.Scratch{}, &part.Events[0])
	}
	return out
}

// referenceDetect is DetectLog on the reference path: reference tuples,
// coalesced and scored window by window.
func referenceDetect(t *testing.T, c *Classifier, log *trace.Log) []Detection {
	t.Helper()
	vecs, starts, err := preprocess.Coalesce(referenceTuples(t, c.enc, log), c.window)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Detection, len(vecs))
	for i, v := range vecs {
		score := c.model.Decision(c.scaler.ApplyInto(nil, v))
		pMal := 0.5
		if c.platt != nil {
			pMal = 1 - c.platt.Probability(score)
		}
		out[i] = Detection{
			FirstEvent:  starts[i],
			LastEvent:   starts[i] + c.window - 1,
			Score:       score,
			Probability: pMal,
			Malicious:   score < 0,
		}
	}
	return out
}

// stackInputs derives logs that stress the detector's walk table from an
// appsim log, keyed by what they stress.
func stackInputs(log *trace.Log) map[string]*trace.Log {
	renamed := log.Clone()
	for i := range renamed.Events {
		st := renamed.Events[i].Stack
		if i%3 != 0 || len(st) == 0 {
			continue
		}
		// Same addresses, different names: the table must not serve the
		// tuple of the walk as the module map names it.
		st[len(st)-1].Function = fmt.Sprintf("renamed%d", i%5)
		if i%2 == 0 {
			st[0].Module = "renamed.dll"
		}
	}

	stackless := log.Clone()
	for i := range stackless.Events {
		if i%4 == 0 {
			stackless.Events[i].Stack = nil
		}
	}

	// More frames than trace.CacheFrames: a unique unresolved frame on
	// top of each stack, recurring every 1500 events. The first two
	// events carry one walk deeper than the whole frame bound. The short
	// variant keeps only the last frame under the unique one, so its
	// 1500 distinct walks overflow trace.CacheWalks instead.
	distinct, short := log.Clone(), log.Clone()
	for i := range distinct.Events {
		top := trace.Frame{Addr: 0x10 + uint64(i%1500)}
		e := &distinct.Events[i]
		e.Stack = append(trace.StackWalk{top}, e.Stack...)
		e = &short.Events[i]
		e.Stack = append(trace.StackWalk{top}, e.Stack[max(0, len(e.Stack)-1):]...)
	}
	// Every other event carries a walk of its own under a unique
	// unresolved frame, so the table fills and resets while the open
	// window still holds events whose repeated walks it indexed long
	// before: no event may read its walk's split after a reset.
	alternate := log.Clone()
	for i := 1; i < len(alternate.Events); i += 2 {
		e := &alternate.Events[i]
		e.Stack = append(trace.StackWalk{{Addr: 0x10 + uint64(i)}}, e.Stack...)
	}

	var deep trace.StackWalk
	for len(deep) <= trace.CacheFrames {
		deep = append(deep, log.Events[len(deep)%len(log.Events)].Stack...)
	}
	distinct.Events[0].Stack = deep
	distinct.Events[1].Stack = slices.Clone(deep)

	return map[string]*trace.Log{
		"appsim":    log,
		"renamed":   renamed,
		"stackless": stackless,
		"distinct":  distinct,
		"short":     short,
		"alternate": alternate,
	}
}

// TestFeaturizeMatchesReference holds the featurizer's tuples to the
// reference path on every stack input, and checks the walk table stays
// within its bounds while reaching them: it holds more frames than
// trace.CacheFrames only as a lone walk deeper than the bound, for the
// event that carries it.
func TestFeaturizeMatchesReference(t *testing.T) {
	clf, mal := trainStream(t, 31)
	var f featurizer
	for name, log := range stackInputs(mal) {
		want := referenceTuples(t, clf.enc, log)
		f.reset(log.Modules)
		var maxWalks, maxFrames int
		for i := range log.Events {
			got, err := f.tuple(clf.enc, &log.Events[i])
			if err != nil {
				t.Fatalf("%s: event %d: %v", name, i, err)
			}
			if got != want[i] {
				t.Fatalf("%s: event %d: featurized %+v, reference %+v", name, i, got, want[i])
			}
			walks, frames := f.walks.Len(), f.walks.Frames()
			deep := walks == 1 && len(log.Events[i].Stack) > trace.CacheFrames
			if walks > trace.CacheWalks || frames > trace.CacheFrames && !deep {
				t.Fatalf("%s: table holds %d walks and %d frames, bounds %d and %d",
					name, walks, frames, trace.CacheWalks, trace.CacheFrames)
			}
			maxWalks = max(maxWalks, walks)
			if !deep {
				maxFrames = max(maxFrames, frames)
			}
		}
		f.flush()
		if name == "short" && maxWalks != trace.CacheWalks {
			t.Errorf("short: table peaked at %d walks, never reaching its bound of %d", maxWalks, trace.CacheWalks)
		}
		if name == "distinct" && maxFrames < trace.CacheFrames-64 {
			t.Errorf("distinct: table peaked at %d frames, never nearing its bound of %d", maxFrames, trace.CacheFrames)
		}
	}
}

// TestDetectLogMatchesReference runs consecutive DetectLog calls through
// the shared detector pool on logs with different module maps and
// classifiers, every stack input and a log shorter than one window; each
// must equal the reference, as a non-nil slice.
func TestDetectLogMatchesReference(t *testing.T) {
	clfA, malA := trainStream(t, 32)
	logsB := genLogs(t, "winscp_reverse_https", 33)
	tdB, err := BuildTrainingData(logsB.Benign, logsB.Mixed, fastConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	clfB, err := tdB.Train()
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		clf  *Classifier
		log  *trace.Log
	}{
		{"A on A", clfA, malA},
		{"B on B", clfB, logsB.Malicious},
		{"A on B", clfA, logsB.Malicious},
		{"B on A", clfB, malA},
		{"A on A again", clfA, malA},
	}
	inputs := stackInputs(malA)
	short := *malA
	short.Events = malA.Events[:clfA.window-1]
	inputs["short log"] = &short
	for name, log := range inputs {
		runs = append(runs, struct {
			name string
			clf  *Classifier
			log  *trace.Log
		}{"A on " + name, clfA, log})
	}
	for _, r := range runs {
		got, err := r.clf.DetectLog(r.log)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if got == nil {
			t.Errorf("%s: DetectLog returned nil, want a non-nil slice even without windows", r.name)
		}
		if want := referenceDetect(t, r.clf, r.log); !slices.Equal(got, want) {
			t.Errorf("%s: DetectLog differs from the reference (%d vs %d detections)", r.name, len(got), len(want))
		}
	}
	// Degraded scoring takes its traces from the same walk table, which
	// the inputs past its bounds reset mid-window.
	degraded := &Monitor{cg: clfA.cg, window: clfA.window}
	for name, log := range inputs {
		got, err := degraded.DetectLog(log)
		if err != nil {
			t.Fatalf("degraded on %s: %v", name, err)
		}
		if want := referenceDegraded(t, clfA.cg, clfA.window, log); !slices.Equal(got, want) {
			t.Errorf("degraded on %s: DetectLog differs from the reference (%d vs %d detections)", name, len(got), len(want))
		}
	}
}

// TestFeedMatchesReference feeds every stack input through one detector
// each, in both scoring modes, and once more through a single stack
// buffer the caller rewrites in place before every Feed call.
func TestFeedMatchesReference(t *testing.T) {
	clf, mal := trainStream(t, 34)
	inputs := stackInputs(mal)
	inputs["reused buffer"] = mal
	for name, log := range inputs {
		for _, m := range []*Monitor{NewMonitor(clf), {cg: clf.cg, window: clf.window}} {
			s, err := m.Stream(log.Modules)
			if err != nil {
				t.Fatal(err)
			}
			var buf trace.StackWalk
			var got []Detection
			for _, e := range log.Events {
				if name == "reused buffer" {
					buf = append(buf[:0], e.Stack...)
					e.Stack = buf
				}
				det, err := s.Feed(e)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if det != nil {
					got = append(got, *det)
				}
			}
			want := referenceDetect(t, clf, log)
			if m.Degraded() {
				want = referenceDegraded(t, clf.cg, clf.window, log)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s (degraded %v): Feed differs from the reference (%d vs %d detections)",
					name, m.Degraded(), len(got), len(want))
			}
		}
	}
}

// featurizeCounters are the telemetry counters featurization must keep
// exact, table hit or miss.
var featurizeCounters = []string{
	"partition_events_total",
	"partition_stackless_events_total",
	"partition_app_frames_total",
	"partition_sys_frames_total",
	"preprocess_encoded_events_total",
}

// counterDelta runs fn and returns how far it moved each named counter;
// a name of the form family{label="value"} names one counter of a
// labelled family.
func counterDelta(names []string, fn func()) []uint64 {
	read := func() []uint64 {
		out := make([]uint64, len(names))
		for i, name := range names {
			family, label, ok := strings.Cut(strings.TrimSuffix(name, "}"), "{")
			if !ok {
				out[i] = telemetry.Default().Counter(name, "").Value()
				continue
			}
			key, value, _ := strings.Cut(label, "=")
			out[i] = telemetry.Default().CounterVec(family, "", key).With(strings.Trim(value, `"`)).Value()
		}
		return out
	}
	before := read()
	fn()
	after := read()
	for i := range after {
		after[i] -= before[i]
	}
	return after
}

// TestFeaturizeCounters checks that DetectLog and Feed move the partition
// and encode counters exactly as Split plus EncodeInto over the same
// events do, though most events hit the walk table.
func TestFeaturizeCounters(t *testing.T) {
	clf, mal := trainStream(t, 35)
	log := stackInputs(mal)["stackless"]
	want := counterDelta(featurizeCounters, func() {
		part, err := partition.Split(log)
		if err != nil {
			t.Fatal(err)
		}
		clf.enc.EncodeInto(nil, part, nil)
	})
	for i, name := range featurizeCounters {
		if want[i] == 0 {
			t.Fatalf("reference moved %s by 0; the check would be vacuous", name)
		}
	}
	got := counterDelta(featurizeCounters, func() {
		if _, err := clf.DetectLog(log); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("DetectLog moved %v by %v, reference %v", featurizeCounters, got, want)
	}
	s, err := clf.Stream(log.Modules)
	if err != nil {
		t.Fatal(err)
	}
	got = counterDelta(featurizeCounters, func() { feedAll(t, s, log.Events) })
	if !slices.Equal(got, want) {
		t.Errorf("Feed moved %v by %v, reference %v", featurizeCounters, got, want)
	}
}

// windowCounters are the counters detection moves per event and window.
var windowCounters = []string{
	"preprocess_windows_total",
	"preprocess_tail_events_total",
	"core_detect_windows_total",
	"core_detect_malicious_total",
	"core_stream_events_total",
	"core_stream_windows_total",
	"core_stream_malicious_total",
}

// TestDetectionWindowCounters checks the window counters of DetectLog and
// Feed in both modes on a log with a partial trailing window: batch
// detection counts core_detect_* and never core_stream_*, Feed the
// reverse, and only the WSVM coalesces windows. Batch detection also
// counts the partial window it drops; a stream keeps it open.
func TestDetectionWindowCounters(t *testing.T) {
	clf, mal := trainStream(t, 39)
	log := *mal
	log.Events = mal.Events[:len(mal.Events)/clf.window*clf.window-3]
	events, wins, tail := uint64(len(log.Events)), uint64(len(log.Events)/clf.window), uint64(clf.window-3)
	degraded := &Monitor{cg: clf.cg, window: clf.window}
	flagged := func(dets []Detection) uint64 {
		var n uint64
		for _, d := range dets {
			if d.Malicious {
				n++
			}
		}
		if n == 0 {
			t.Fatal("reference flags no window; the malicious counters would be vacuous")
		}
		return n
	}
	wsvmMal := flagged(referenceDetect(t, clf, &log))
	cgMal := flagged(referenceDegraded(t, clf.cg, clf.window, &log))
	feed := func(m *Monitor) func() {
		return func() {
			s, err := m.Stream(log.Modules)
			if err != nil {
				t.Fatal(err)
			}
			feedAll(t, s, log.Events)
		}
	}
	detect := func(m *Monitor) func() {
		return func() {
			if _, err := m.DetectLog(&log); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		name string
		run  func()
		want []uint64
	}{
		{"DetectLog", detect(NewMonitor(clf)), []uint64{wins, tail, wins, wsvmMal, 0, 0, 0}},
		{"degraded DetectLog", detect(degraded), []uint64{0, 0, wins, cgMal, 0, 0, 0}},
		{"Feed", feed(NewMonitor(clf)), []uint64{wins, 0, 0, 0, events, wins, wsvmMal}},
		{"degraded Feed", feed(degraded), []uint64{0, 0, 0, 0, events, wins, cgMal}},
	} {
		if got := counterDelta(windowCounters, c.run); !slices.Equal(got, c.want) {
			t.Errorf("%s moved %v by %v, want %v", c.name, windowCounters, got, c.want)
		}
	}
}

// TestFeaturizeConcurrent runs DetectLog from several goroutines on
// different logs and classifiers, sharing the detector pool, while one
// detector is fed with a checkpoint taken and restored concurrently.
// Every result must equal the reference; run it under -race.
func TestFeaturizeConcurrent(t *testing.T) {
	clfA, malA := trainStream(t, 36)
	clfB, malB := trainStream(t, 37)
	type job struct {
		clf *Classifier
		log *trace.Log
	}
	jobs := []job{{clfA, malA}, {clfB, malB}, {clfA, malB}, {clfB, malA}}
	want := make([][]Detection, len(jobs))
	for i, j := range jobs {
		want[i] = referenceDetect(t, j.clf, j.log)
	}
	wantFeed := want[0]

	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				got, err := j.clf.DetectLog(j.log)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got, want[i]) {
					t.Errorf("job %d: DetectLog differs from the reference", i)
					return
				}
			}
		}()
	}
	s, err := clfA.Stream(malA.Modules)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var gotFeed []Detection
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, e := range malA.Events {
			det, err := s.Feed(e)
			if err != nil {
				t.Error(err)
				return
			}
			if det != nil {
				gotFeed = append(gotFeed, *det)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Error(err)
				return
			}
			if _, err := NewMonitor(clfA).RestoreStream(malA.Modules, &buf); err != nil {
				t.Errorf("mid-feed checkpoint not restorable: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if !slices.Equal(gotFeed, wantFeed) {
		t.Errorf("Feed under concurrent checkpoints differs from the reference (%d vs %d detections)",
			len(gotFeed), len(wantFeed))
	}
}

// TestDetectLogAllocs pins a warm DetectLog's allocation count: once the
// pooled detector has grown, a call allocates only its span and the
// returned Detection slice.
func TestDetectLogAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race")
	}
	const detectLogAllocBudget = 3 // allocs per call
	clf, mal := trainStream(t, 38)
	if _, err := clf.DetectLog(mal); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := clf.DetectLog(mal); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > detectLogAllocBudget {
		t.Errorf("warm DetectLog allocated %.0f times per call, budget %d", allocs, detectLogAllocBudget)
	}
}
