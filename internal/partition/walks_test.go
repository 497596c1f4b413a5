// Exactness tests for the walk-deduplicated split: every event must equal
// a split of that event alone, and the walk index must group exactly the
// events whose stack walks are equal.
package partition

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/trace"
)

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

// checkSplit holds a split of log, made on s, to the per-event reference
// and checks its walk index: ids number distinct walks in
// first-occurrence order, events share an id exactly when their stack
// walks are equal, and events sharing an id alias one split.
func checkSplit(t *testing.T, name string, log *trace.Log, s *Scratch) {
	t.Helper()
	got, err := SplitInto(log, s)
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
		var key string
		for _, fr := range log.Events[i].Stack {
			key += fmt.Sprintf("%x %q %q;", fr.Addr, fr.Module, fr.Function)
		}
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

// hashK is HashWalk's per-frame multiplier.
const hashK = 0x9e3779b97f4a7c15

// collidingWalks returns two two-frame walks with different addresses
// and equal HashWalk values: HashWalk mixes each address into the
// running value by xor before multiplying, so the second walk's last
// address can cancel the difference its first address made.
func collidingWalks(t testing.TB) (a, b trace.StackWalk) {
	a = trace.StackWalk{{Addr: 0x400100}, {Addr: 0x7ff00100}}
	b1 := uint64(0x7ff00200)
	b2 := (2^a[0].Addr)*hashK ^ (2^b1)*hashK ^ a[1].Addr
	b = trace.StackWalk{{Addr: b1}, {Addr: b2}}
	if HashWalk(a) != HashWalk(b) {
		t.Fatal("constructed walks do not collide; update collidingWalks to HashWalk")
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

// TestSplitMatchesPerEventReference holds the walk-deduplicated split to
// a split of every event on its own, on fresh scratch and on one scratch
// reused across all inputs.
func TestSplitMatchesPerEventReference(t *testing.T) {
	inputs := walkInputs(t)
	var shared Scratch
	for _, name := range []string{"appsim", "renamed", "stackless", "collision", "built", "empty", "appsim"} {
		checkSplit(t, name, inputs[name], &Scratch{})
		checkSplit(t, name+" (reused scratch)", inputs[name], &shared)
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
// per-event reference: repeated, renamed, colliding, stackless, nil and
// empty walks in any order.
func FuzzSplitWalks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 5, 0, 0, 6, 0, 0, 5, 0, 0})
	f.Add([]byte{4, 1, 2, 4, 1, 2, 4, 0x31, 2, 3, 0x90, 7, 4, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		log := walkLog(t, data)
		checkSplit(t, "fuzz", log, &Scratch{})
	})
}
