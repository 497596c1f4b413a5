// Property tests for the encode path: tuples and the fitted encoder must
// equal a test-local, allocating reference built from map-based sets and
// key-free cluster lookups, whether each event or each distinct stack
// walk is visited, and the warm path must stop allocating.
package preprocess

import (
	"context"
	"slices"
	"sort"
	"testing"

	"repro/internal/partition"
	"repro/internal/trace"
)

// referenceSets builds an event's library and function sets the
// allocating way: a map per set, its keys sorted.
func referenceSets(e *partition.Event) (libs, fns []string) {
	lm, fm := make(map[string]bool), make(map[string]bool)
	for _, fr := range e.SysTrace {
		if fr.Module != "" {
			lm[fr.Module] = true
		}
		if fr.Function != "" {
			fm[fr.Module+"!"+fr.Function] = true
		}
	}
	return sortedSet(lm), sortedSet(fm)
}

// sortedSet returns a set's members in order.
func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// referenceAssign maps a sorted set to its cluster id without set keys:
// the label of an equal fitted set, else the cluster of the nearest
// medoid.
func referenceAssign(sc *setClusters, set []string) int {
	for i, u := range sc.uniq {
		if slices.Equal(u, set) {
			return sc.labels[i]
		}
	}
	best, bestD := 0, 2.0
	for c, mi := range sc.medoids {
		if d := Jaccard(set, sc.uniq[mi]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// referenceEncode is EncodeOne on the reference path.
func referenceEncode(enc *Encoder, e *partition.Event) Tuple {
	libs, fns := referenceSets(e)
	return Tuple{EventType: int(e.Type), Lib: referenceAssign(enc.libs, libs), Func: referenceAssign(enc.fns, fns)}
}

// TestEncodeOneMatchesEncode holds EncodeOne, and the sets it builds, to
// the reference on every event of a fitted log plus a log the encoder
// never saw (so both the key-hit and the nearest-medoid fallback paths
// are exercised).
func TestEncodeOneMatchesEncode(t *testing.T) {
	seen := partitionedLog(t, 3)
	unseen := partitionedLog(t, 77)
	enc, err := Fit(seen.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for _, part := range []*partition.Log{seen, unseen} {
		for i := range part.Events {
			e := &part.Events[i]
			libs, fns := referenceSets(e)
			if got := s.libNames(e); !slices.Equal(got, libs) {
				t.Fatalf("event %d: library set %q, reference %q", i, got, libs)
			}
			if got := s.funcNames(e); !slices.Equal(got, fns) {
				t.Fatalf("event %d: function set %q, reference %q", i, got, fns)
			}
			want := referenceEncode(enc, e)
			if got := enc.EncodeOne(&s, e); got != want {
				t.Fatalf("event %d: reference=%+v EncodeOne=%+v", i, want, got)
			}
		}
	}
}

// TestLibAndFuncSets pins the set semantics on one event: distinct
// module names, distinct module-qualified function names, unresolved
// frames skipped, both sorted.
func TestLibAndFuncSets(t *testing.T) {
	e := partition.Event{SysTrace: trace.StackWalk{
		{Addr: 1, Module: "ntdll.dll", Function: "NtReadFile"},
		{Addr: 2, Module: "kernel32.dll", Function: "ReadFile"},
		{Addr: 3, Module: "ntdll.dll", Function: "NtReadFile"}, // duplicate
		{Addr: 4}, // unresolved, skipped
	}}
	var s Scratch
	if libs := s.libNames(&e); !slices.Equal(libs, []string{"kernel32.dll", "ntdll.dll"}) {
		t.Errorf("library set = %q", libs)
	}
	if fns := s.funcNames(&e); !slices.Equal(fns, []string{"kernel32.dll!ReadFile", "ntdll.dll!NtReadFile"}) {
		t.Errorf("function set = %q", fns)
	}
}

// TestFitOverWalksMatchesPerEvent requires an encoder fitted over the
// distinct stack walks of split logs to equal one fitted over every
// event of the same logs, which carry no walk index, and the walk-aware
// EncodeInto to equal the reference on every event. The second log
// drops every fourth event's stack walk, so events of different types
// share the empty walk.
func TestFitOverWalksMatchesPerEvent(t *testing.T) {
	a := partitionedLog(t, 21)
	stackless := generatedLog(t, 22)
	for i := 0; i < len(stackless.Events); i += 4 {
		stackless.Events[i].Stack = nil
	}
	b, err := partition.Split(stackless)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWalks() >= a.Len() {
		t.Fatalf("split log has %d walks for %d events; the check would be vacuous", a.NumWalks(), a.Len())
	}
	got, err := FitContext(context.Background(), []*partition.Log{a, b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fit(append(slices.Clone(a.Events), b.Events...), Config{})
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotBytes, wantBytes) {
		t.Fatal("encoder fitted over distinct walks differs from one fitted over every event")
	}
	for _, part := range []*partition.Log{a, b} {
		tuples := got.EncodeAll(part)
		for i := range part.Events {
			if want := referenceEncode(got, &part.Events[i]); tuples[i] != want {
				t.Fatalf("event %d: EncodeAll=%+v, reference %+v", i, tuples[i], want)
			}
		}
	}
}

// TestSetKeysInjective fits pairs of sets whose names joined with NUL
// read the same, a one-name set against a two-name set: library sets
// {"a\x00b"} and {"a", "b"}, and function sets {"m!f\x00m!g"} and
// {"m!f", "m!g"}. Each set must keep its own cluster, also after a save
// and load of the encoder.
func TestSetKeysInjective(t *testing.T) {
	events := []partition.Event{
		{SysTrace: trace.StackWalk{{Addr: 1, Module: "a\x00b"}}},
		{SysTrace: trace.StackWalk{{Addr: 2, Module: "a"}, {Addr: 3, Module: "b"}}},
		{SysTrace: trace.StackWalk{{Addr: 4, Module: "m", Function: "f\x00m!g"}}},
		{SysTrace: trace.StackWalk{{Addr: 5, Module: "m", Function: "f"}, {Addr: 6, Module: "m", Function: "g"}}},
	}
	enc, err := Fit(events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Encoder
	if err := loaded.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for name, e := range map[string]*Encoder{"fitted": enc, "loaded": &loaded} {
		if e.NumLibClusters() != 3 || e.NumFuncClusters() != 3 {
			t.Errorf("%s: %d library and %d function clusters, want 3 each", name, e.NumLibClusters(), e.NumFuncClusters())
		}
		if l0, l1 := e.EncodeOne(&s, &events[0]), e.EncodeOne(&s, &events[1]); l0.Lib == l1.Lib {
			t.Errorf("%s: colliding library sets share cluster %d", name, l0.Lib)
		}
		if f0, f1 := e.EncodeOne(&s, &events[2]), e.EncodeOne(&s, &events[3]); f0.Func == f1.Func {
			t.Errorf("%s: colliding function sets share cluster %d", name, f0.Func)
		}
	}
}

// TestEncodeBatchMatchesEncodeAll checks the batch wrappers: EncodeAll,
// EncodeInto and EncodeBatch must agree, and a recycled dst must be
// reused in place.
func TestEncodeBatchMatchesEncodeAll(t *testing.T) {
	part := partitionedLog(t, 5)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := enc.EncodeAll(part)
	var s Scratch
	got := enc.EncodeInto(nil, part, &s)
	if len(got) != len(want) {
		t.Fatalf("EncodeInto returned %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
	reused := enc.EncodeBatch(got[:0], part.Events, &s)
	if &reused[0] != &got[0] {
		t.Fatal("EncodeBatch reallocated despite sufficient capacity")
	}
}

// TestEncodeOneSteadyStateAllocs requires the warm scratch path to be
// allocation-free: per event through EncodeOne, and per log through
// EncodeInto into a recycled dst, featurization's batch path. Coalescing
// that batch into a warm buffer is held to 0 by
// TestCoalesceIntoMatchesCoalesce.
func TestEncodeOneSteadyStateAllocs(t *testing.T) {
	part := partitionedLog(t, 9)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for i := range part.Events {
		enc.EncodeOne(&s, &part.Events[i])
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		enc.EncodeOne(&s, &part.Events[i%len(part.Events)])
		i++
	})
	if avg != 0 {
		t.Fatalf("warm EncodeOne allocates %.2f per event, want 0", avg)
	}
	tuples := enc.EncodeInto(nil, part, &s)
	if avg := testing.AllocsPerRun(50, func() {
		tuples = enc.EncodeInto(tuples[:0], part, &s)
	}); avg != 0 {
		t.Fatalf("warm EncodeInto into a recycled dst allocates %.2f per call, want 0", avg)
	}
}

// TestCoalesceIntoMatchesCoalesce checks the slab-backed coalescer
// against the allocating wrapper, including the degenerate window.
func TestCoalesceIntoMatchesCoalesce(t *testing.T) {
	part := partitionedLog(t, 11)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := enc.EncodeAll(part)
	var wb WindowBuf
	if err := CoalesceInto(&wb, tuples, 0); err == nil {
		t.Fatal("CoalesceInto(window 0) succeeded")
	}
	for _, window := range []int{1, 7, 10} {
		vecs, starts, err := Coalesce(tuples, window)
		if err != nil {
			t.Fatal(err)
		}
		if err := CoalesceInto(&wb, tuples, window); err != nil {
			t.Fatal(err)
		}
		if len(wb.Vecs) != len(vecs) || len(wb.Starts) != len(starts) {
			t.Fatalf("window %d: got %d/%d windows, want %d/%d",
				window, len(wb.Vecs), len(wb.Starts), len(vecs), len(starts))
		}
		for i := range vecs {
			if wb.Starts[i] != starts[i] {
				t.Fatalf("window %d start %d: want %d, got %d", window, i, starts[i], wb.Starts[i])
			}
			for j := range vecs[i] {
				if wb.Vecs[i][j] != vecs[i][j] {
					t.Fatalf("window %d vec %d[%d]: want %v, got %v",
						window, i, j, vecs[i][j], wb.Vecs[i][j])
				}
			}
		}
	}
	// A warm buffer must coalesce without allocating.
	if avg := testing.AllocsPerRun(50, func() {
		if err := CoalesceInto(&wb, tuples, 10); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("warm CoalesceInto allocates %.2f per call, want 0", avg)
	}
}

// TestFlattenWindowMatchesCoalesce pins the streaming single-window
// flattener to Coalesce's vector layout.
func TestFlattenWindowMatchesCoalesce(t *testing.T) {
	part := partitionedLog(t, 13)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := enc.EncodeAll(part)[:10]
	vecs, _, err := Coalesce(tuples, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := FlattenWindow(nil, tuples)
	if len(got) != len(vecs[0]) {
		t.Fatalf("FlattenWindow returned %d dims, want %d", len(got), len(vecs[0]))
	}
	for i := range got {
		if got[i] != vecs[0][i] {
			t.Fatalf("dim %d: want %v, got %v", i, vecs[0][i], got[i])
		}
	}
}
