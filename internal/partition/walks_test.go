// Exactness tests for the walk table and the walk-deduplicated split on
// it: every event must equal a split of that event alone, and walk ids
// and the walk index must group exactly the events whose stack walks
// are equal.
package partition

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/appsim"
	"repro/internal/trace"
)

// generatedLog is an appsim log of vim infected with a reverse-TCP
// payload.
func generatedLog(t *testing.T, seed int64, events int) *trace.Log {
	t.Helper()
	payload := appsim.ReverseTCPProfile()
	p, err := appsim.NewProcess(appsim.VimProfile(), &payload, appsim.MethodOfflineInfection)
	if err != nil {
		t.Fatal(err)
	}
	log, err := p.GenerateLog(appsim.GenConfig{Seed: seed, Events: events, PayloadFraction: 0.3, PID: 4})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// referenceSplit partitions every event on its own, frame by frame: the
// per-event split the walk-deduplicated one must reproduce, with nil for
// a trace side without frames.
func referenceSplit(log *trace.Log) []Event {
	out := make([]Event, len(log.Events))
	for i, e := range log.Events {
		pe := Event{Seq: e.Seq, Type: e.Type, TID: e.TID}
		for _, fr := range e.Stack {
			if isSystemFrame(log.Modules, fr) {
				pe.SysTrace = append(pe.SysTrace, fr)
			} else {
				pe.AppTrace = append(pe.AppTrace, fr)
			}
		}
		out[i] = pe
	}
	return out
}

// sameTrace reports whether two traces hold the same frames and are both
// nil or both non-nil.
func sameTrace(a, b trace.StackWalk) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// checkSplit holds Split's result on log to the per-event reference
// and checks its walk index: ids number distinct walks in
// first-occurrence order, events share an id exactly when their stack
// walks are equal, and events sharing an id alias one split.
func checkSplit(t *testing.T, name string, log *trace.Log) {
	t.Helper()
	got, err := Split(log)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := referenceSplit(log)
	if got.App != log.App || got.PID != log.PID || len(got.Events) != len(want) {
		t.Fatalf("%s: got (%q, %d, %d events), want (%q, %d, %d events)",
			name, got.App, got.PID, len(got.Events), log.App, log.PID, len(want))
	}
	if len(got.Walk) != len(got.Events) || got.NumWalks() != len(got.First) {
		t.Fatalf("%s: walk index of %d ids and %d walks for %d events",
			name, len(got.Walk), len(got.First), len(got.Events))
	}
	for i := range want {
		w, g := &want[i], &got.Events[i]
		if w.Seq != g.Seq || w.Type != g.Type || w.TID != g.TID ||
			!sameTrace(w.AppTrace, g.AppTrace) || !sameTrace(w.SysTrace, g.SysTrace) {
			t.Fatalf("%s: event %d: split %+v, reference %+v", name, i, g, w)
		}
	}
	// Key every walk by its frames' full contents, nil and empty walks
	// alike: the walk index must agree with it exactly.
	byFrames := make(map[string]int)
	for i := range log.Events {
		key := walkKey(log.Events[i].Stack)
		w := got.WalkOf(i)
		first := got.FirstOf(w)
		id, seen := byFrames[key]
		switch {
		case !seen && first != i:
			t.Fatalf("%s: event %d carries a new walk but the index says it first occurs at %d", name, i, first)
		case !seen && w != len(byFrames):
			t.Fatalf("%s: event %d starts walk %d, want id %d in first-occurrence order", name, i, w, len(byFrames))
		case seen && w != id:
			t.Fatalf("%s: event %d repeats walk %d but is indexed as walk %d", name, i, id, w)
		}
		if !seen {
			byFrames[key] = w
			continue
		}
		g, f := &got.Events[i], &got.Events[first]
		if len(g.AppTrace) > 0 && &g.AppTrace[0] != &f.AppTrace[0] ||
			len(g.SysTrace) > 0 && &g.SysTrace[0] != &f.SysTrace[0] {
			t.Fatalf("%s: event %d does not alias the split of its walk's first event %d", name, i, first)
		}
	}
	if len(byFrames) != got.NumWalks() {
		t.Fatalf("%s: %d distinct walks, index holds %d", name, len(byFrames), got.NumWalks())
	}
}

// walkKey keys a stack walk by its frames' full contents.
func walkKey(st trace.StackWalk) string {
	var key string
	for _, fr := range st {
		key += fmt.Sprintf("%x %q %q;", fr.Addr, fr.Module, fr.Function)
	}
	return key
}

// checkWalks looks log's stack walks up in tbl one event at a time,
// emptying the table whenever it holds maxWalks walks or the next walk
// would take it past maxFrames frames, as a detector does at its
// bounds, and returns how often it did. Every lookup must return the
// per-event reference split; ids must number the walks indexed since
// the last reset in first-occurrence order, fresh exactly for a walk not
// indexed since then; and before every reset, and at the end, every
// indexed walk must still return its split.
func checkWalks(t *testing.T, name string, log *trace.Log, tbl *Walks, maxWalks, maxFrames int) (resets int) {
	t.Helper()
	want := referenceSplit(log)
	ids := make(map[string]int)
	var firsts []int // the first event of each indexed walk, by id
	frames := 0
	checkIndexed := func() {
		for id, i := range firsts {
			if app, sys := tbl.Traces(id); !sameTrace(app, want[i].AppTrace) || !sameTrace(sys, want[i].SysTrace) {
				t.Fatalf("%s: walk %d (event %d) now returns (%v, %v), reference (%v, %v)",
					name, id, i, app, sys, want[i].AppTrace, want[i].SysTrace)
			}
		}
	}
	for i := range log.Events {
		st := log.Events[i].Stack
		if tbl.Len() == maxWalks || tbl.Frames()+len(st) > maxFrames {
			checkIndexed()
			tbl.Reset()
			clear(ids)
			firsts, frames = firsts[:0], 0
			resets++
		}
		id, fresh := tbl.Walk(log.Modules, st)
		prev, seen := ids[walkKey(st)]
		switch {
		case seen && (fresh || id != prev):
			t.Fatalf("%s: event %d repeats walk %d but got (id %d, fresh %v)", name, i, prev, id, fresh)
		case !seen && (!fresh || id != len(ids)):
			t.Fatalf("%s: event %d carries a new walk but got (id %d, fresh %v), want (%d, true)", name, i, id, fresh, len(ids))
		}
		if !seen {
			ids[walkKey(st)] = id
			firsts = append(firsts, i)
			frames += len(st)
		}
		if app, sys := tbl.Traces(id); !sameTrace(app, want[i].AppTrace) || !sameTrace(sys, want[i].SysTrace) {
			t.Fatalf("%s: event %d: walk %d returns (%v, %v), reference (%v, %v)",
				name, i, id, app, sys, want[i].AppTrace, want[i].SysTrace)
		}
		if tbl.Len() != len(ids) || tbl.Frames() != frames {
			t.Fatalf("%s: event %d: table holds %d walks and %d frames, want %d and %d",
				name, i, tbl.Len(), tbl.Frames(), len(ids), frames)
		}
	}
	checkIndexed()
	return resets
}

// hashK is hashWalk's per-frame multiplier.
const hashK = 0x9e3779b97f4a7c15

// collidingWalks returns two two-frame walks with different addresses
// and equal hashWalk values: hashWalk mixes each address into the
// running value by xor before multiplying, so the second walk's last
// address can cancel the difference its first address made.
func collidingWalks(t testing.TB) (a, b trace.StackWalk) {
	a = trace.StackWalk{{Addr: 0x400100}, {Addr: 0x7ff00100}}
	b1 := uint64(0x7ff00200)
	b2 := (2^a[0].Addr)*hashK ^ (2^b1)*hashK ^ a[1].Addr
	b = trace.StackWalk{{Addr: b1}, {Addr: b2}}
	if hashWalk(a) != hashWalk(b) {
		t.Fatal("constructed walks do not collide; update collidingWalks to hashWalk")
	}
	return a, b
}

// walkModuleMap is a module map with an application image, a shared
// library and a kernel module, for hand-built logs.
func walkModuleMap(t testing.TB) *trace.ModuleMap {
	t.Helper()
	var mods []*trace.Module
	for _, m := range []struct {
		name string
		kind trace.ModuleKind
		base uint64
		fn   string
	}{
		{"app.exe", trace.ModuleApp, 0x400000, "main"},
		{"lib.dll", trace.ModuleSharedLib, 0x7ff00000, "Call"},
		{"ntos.sys", trace.ModuleKernel, 0xfff00000, "Sys"},
	} {
		mod, err := trace.NewModule(m.name, m.kind, m.base, 0x10000, []trace.Symbol{{Name: m.fn, Addr: m.base + 0x100}})
		if err != nil {
			t.Fatal(err)
		}
		mods = append(mods, mod)
	}
	mm, err := trace.NewModuleMap("app.exe", mods)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

// walkAddrs are the frame addresses hand-built logs draw from: two per
// module plus two unresolved (injected-code) addresses.
var walkAddrs = []uint64{0x400100, 0x400200, 0x7ff00100, 0x7ff00200, 0xfff00100, 0xfff00200, 0x10, 0x20}

// walkLog decodes data into a log over walkModuleMap, three bytes per
// event: a shape byte and two frame bytes. The shape picks a stack of
// 0–4 frames, nil or empty when it has none, or one of two walks whose
// hashes collide; a frame byte picks an address and may rename the
// resolved frame, so equal addresses can carry different names.
func walkLog(t testing.TB, data []byte) *trace.Log {
	mm := walkModuleMap(t)
	colA, colB := collidingWalks(t)
	log := &trace.Log{App: "app.exe", PID: 1, Modules: mm}
	for i := 0; i+2 < len(data); i += 3 {
		shape, f0, f1 := data[i], data[i+1], data[i+2]
		e := trace.Event{Seq: len(log.Events), Type: trace.EventType(1 + shape%3), TID: int(shape >> 6)}
		switch n := int(shape % 7); {
		case n == 5:
			e.Stack = colA.Clone()
		case n == 6:
			e.Stack = colB.Clone()
		case n == 0 && shape&0x80 != 0:
			e.Stack = trace.StackWalk{}
		default:
			for j := 0; j < n; j++ {
				f := f0
				if j%2 == 1 {
					f = f1
				}
				f += byte(j)
				e.Stack = append(e.Stack, trace.Frame{Addr: walkAddrs[int(f)%len(walkAddrs)]})
			}
		}
		mm.ResolveStack(e.Stack)
		for j := range e.Stack {
			switch (f0 >> (4 + j%4)) & 3 {
			case 1:
				e.Stack[j].Function = "renamed"
			case 2:
				e.Stack[j].Module = "renamed.dll"
			}
		}
		log.Events = append(log.Events, e)
	}
	return log
}

// walkInputs are the logs the split is checked on, keyed by what they
// stress.
func walkInputs(t *testing.T) map[string]*trace.Log {
	app := generatedLog(t, 5, 600)

	renamed := app.Clone()
	for i := range renamed.Events {
		st := renamed.Events[i].Stack
		if i%3 != 0 || len(st) == 0 {
			continue
		}
		st[len(st)-1].Function = fmt.Sprintf("renamed%d", i%5)
		if i%2 == 0 {
			st[0].Module = "renamed.dll"
		}
	}

	stackless := app.Clone()
	for i := range stackless.Events {
		switch i % 5 {
		case 0:
			stackless.Events[i].Stack = nil
		case 1:
			stackless.Events[i].Stack = trace.StackWalk{}
		}
	}

	mm := walkModuleMap(t)
	colA, colB := collidingWalks(t)
	collision := &trace.Log{App: "app.exe", PID: 2, Modules: mm}
	for i, st := range []trace.StackWalk{colA, colB, colB, nil, colA, {}, colB} {
		collision.Events = append(collision.Events, trace.Event{Seq: i, Type: trace.EventFileRead, Stack: mm.ResolveStack(st.Clone())})
	}

	seed := make([]byte, 3*400)
	for i := range seed {
		seed[i] = byte(i*7 + i/3)
	}
	return map[string]*trace.Log{
		"appsim":    app,
		"renamed":   renamed,
		"stackless": stackless,
		"collision": collision,
		"built":     walkLog(t, seed),
		"empty":     {App: "app.exe", PID: 3, Modules: mm},
	}
}

// TestSplitMatchesPerEventReference holds the walk-deduplicated split
// to a split of every event on its own, and so the walk table behind it:
// fresh per input, bounded so that it resets many times per input, and
// one table reused across all inputs.
func TestSplitMatchesPerEventReference(t *testing.T) {
	inputs := walkInputs(t)
	for seed := int64(1); seed <= 3; seed++ {
		inputs[fmt.Sprint("appsim seed ", seed)] = generatedLog(t, seed, 400)
	}
	var names []string
	for name := range inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	var shared Walks
	for _, name := range append(names, names...) {
		log := inputs[name]
		checkSplit(t, name, log)
		checkWalks(t, name+" (fresh table)", log, &Walks{}, math.MaxInt, math.MaxInt)
		if resets := checkWalks(t, name+" (bounded table)", log, &Walks{}, 8, 24); resets == 0 && log.Len() > 24 {
			t.Fatalf("%s: the bounded table never reset", name)
		}
		shared.Reset()
		checkWalks(t, name+" (reused table)", log, &shared, math.MaxInt, math.MaxInt)
	}
}

// TestWalksSteadyStateAllocs requires a warm table to look up and index
// a log's walks again, after a reset, without allocating.
func TestWalksSteadyStateAllocs(t *testing.T) {
	log := generatedLog(t, 7, 400)
	var tbl Walks
	walkAll := func() {
		tbl.Reset()
		for i := range log.Events {
			id, _ := tbl.Walk(log.Modules, log.Events[i].Stack)
			tbl.Traces(id)
		}
	}
	walkAll()
	if tbl.Len() < 2 {
		t.Fatalf("log holds %d distinct walks; the check would be vacuous", tbl.Len())
	}
	if avg := testing.AllocsPerRun(50, walkAll); avg != 0 {
		t.Fatalf("warm table allocates %.2f per pass over the log, want 0", avg)
	}
}

// TestGatherIndexesWalks checks that a log gathered from windows of a
// split log has its own walk index, numbering the distinct walks among
// the gathered events in first-occurrence order.
func TestGatherIndexesWalks(t *testing.T) {
	log := walkInputs(t)["stackless"]
	part, err := Split(log)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{{300, 310}, {20, 30}, {300, 305}, {590, 600}}
	sub := part.Gather(ranges)
	var src trace.Log
	src.App, src.PID, src.Modules = log.App, log.PID, log.Modules
	for _, r := range ranges {
		src.Events = append(src.Events, log.Events[r[0]:r[1]]...)
	}
	want, err := Split(&src)
	if err != nil {
		t.Fatal(err)
	}
	if sub.App != part.App || sub.PID != part.PID || !slices.Equal(sub.Walk, want.Walk) || !slices.Equal(sub.First, want.First) {
		t.Fatalf("gathered walk index (%v, %v), want the split's (%v, %v)", sub.Walk, sub.First, want.Walk, want.First)
	}
	for i := range sub.Events {
		g, w := &sub.Events[i], &want.Events[i]
		if g.Seq != w.Seq || !sameTrace(g.AppTrace, w.AppTrace) || !sameTrace(g.SysTrace, w.SysTrace) {
			t.Fatalf("gathered event %d = %+v, want %+v", i, g, w)
		}
	}
}

// FuzzSplitWalks holds the split of arbitrary hand-built logs to the
// per-event reference, and the walk table behind it, unbounded and
// reset at bounds the input picks: repeated, renamed, colliding,
// stackless, nil and empty walks in any order.
func FuzzSplitWalks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 5, 0, 0, 6, 0, 0, 5, 0, 0})
	f.Add([]byte{4, 1, 2, 4, 1, 2, 4, 0x31, 2, 3, 0x90, 7, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		log := walkLog(t, data)
		checkSplit(t, "fuzz", log)
		var tbl Walks
		checkWalks(t, "fuzz", log, &tbl, math.MaxInt, math.MaxInt)
		// Bounds drawn from the input reset the same table, at the
		// walk bound, at the frame bound or before every event.
		if len(data) > 0 {
			tbl.Reset()
			checkWalks(t, "fuzz (bounded)", log, &tbl, 1+int(data[0]&7), int(data[0]>>3))
		}
	})
}
