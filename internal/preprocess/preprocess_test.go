package preprocess

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/appsim"
	"repro/internal/hcluster"
	"repro/internal/partition"
	"repro/internal/trace"
)

func TestJaccard(t *testing.T) {
	tests := []struct {
		name string
		a, b []string
		want float64
	}{
		{"identical", []string{"a", "b"}, []string{"a", "b"}, 0},
		{"disjoint", []string{"a"}, []string{"b"}, 1},
		{"half", []string{"a", "b"}, []string{"b", "c"}, 1 - 1.0/3},
		{"subset", []string{"a"}, []string{"a", "b"}, 0.5},
		{"both empty", nil, nil, 0},
		{"one empty", []string{"a"}, nil, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Jaccard(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Jaccard(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

// Property: Jaccard is symmetric, bounded in [0,1], and zero iff equal sets.
func TestJaccardPropertyQuick(t *testing.T) {
	mk := func(raw []byte) []string {
		set := make(map[string]bool)
		for _, b := range raw {
			set[string(rune('a'+int(b)%8))] = true
		}
		out := make([]string, 0, len(set))
		for k := range set {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	f := func(ra, rb []byte) bool {
		a, b := mk(ra), mk(rb)
		d1, d2 := Jaccard(a, b), Jaccard(b, a)
		if d1 != d2 || d1 < 0 || d1 > 1 {
			return false
		}
		if reflect.DeepEqual(a, b) != (d1 == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func partitionedLog(t *testing.T, seed int64) *partition.Log {
	t.Helper()
	part, err := partition.Split(generatedLog(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	return part
}

func generatedLog(t *testing.T, seed int64) *trace.Log {
	t.Helper()
	payload := appsim.ReverseTCPProfile()
	p, err := appsim.NewProcess(appsim.WinSCPProfile(), &payload, appsim.MethodOfflineInfection)
	if err != nil {
		t.Fatal(err)
	}
	log, err := p.GenerateLog(appsim.GenConfig{Seed: seed, Events: 600, PayloadFraction: 0.35, PID: 1})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, Config{}); err == nil {
		t.Error("Fit(no events) succeeded")
	}
}

func TestFitAndEncode(t *testing.T) {
	part := partitionedLog(t, 3)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if enc.NumLibClusters() < 2 {
		t.Errorf("NumLibClusters() = %d, want >= 2", enc.NumLibClusters())
	}
	if enc.NumFuncClusters() < 2 {
		t.Errorf("NumFuncClusters() = %d, want >= 2", enc.NumFuncClusters())
	}
	tuples := enc.EncodeAll(part)
	if len(tuples) != part.Len() {
		t.Fatalf("EncodeAll returned %d tuples, want %d", len(tuples), part.Len())
	}
	for i, tp := range tuples {
		if tp.EventType != int(part.Events[i].Type) {
			t.Fatalf("tuple %d event type = %d, want %d", i, tp.EventType, part.Events[i].Type)
		}
		if tp.Lib < 0 || tp.Lib >= enc.NumLibClusters() {
			t.Fatalf("tuple %d lib cluster %d out of range", i, tp.Lib)
		}
		if tp.Func < 0 || tp.Func >= enc.NumFuncClusters() {
			t.Fatalf("tuple %d func cluster %d out of range", i, tp.Func)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	part := partitionedLog(t, 4)
	enc1, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := enc1.EncodeAll(part)
	b := enc2.EncodeAll(part)
	if !reflect.DeepEqual(a, b) {
		t.Error("two fits over the same data disagree")
	}
}

func TestEncodeIdenticalSetsSameCluster(t *testing.T) {
	part := partitionedLog(t, 5)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Events with identical system stacks must encode identically.
	type key struct{ libs, fns string }
	byKey := make(map[key]Tuple)
	var s Scratch
	for i := range part.Events {
		e := &part.Events[i]
		libs, fns := referenceSets(e)
		k := key{libs: fmt.Sprintf("%q", libs), fns: fmt.Sprintf("%q", fns)}
		tp := enc.EncodeOne(&s, e)
		if prev, ok := byKey[k]; ok {
			if prev.Lib != tp.Lib || prev.Func != tp.Func {
				t.Fatalf("identical sets got clusters %+v and %+v", prev, tp)
			}
		} else {
			byKey[k] = tp
		}
	}
}

func TestEncodeUnseenSetAssigned(t *testing.T) {
	part := partitionedLog(t, 6)
	enc, err := Fit(part.Events, Config{})
	if err != nil {
		t.Fatal(err)
	}
	unseen := partition.Event{
		Type: trace.EventNetSend,
		SysTrace: trace.StackWalk{
			{Addr: 1, Module: "ws2_32.dll", Function: "send"},
			{Addr: 2, Module: "never_seen.dll", Function: "Mystery"},
		},
	}
	tp := enc.EncodeOne(&Scratch{}, &unseen)
	if tp.Lib < 0 || tp.Lib >= enc.NumLibClusters() {
		t.Errorf("unseen lib set assigned out-of-range cluster %d", tp.Lib)
	}
	if tp.Func < 0 || tp.Func >= enc.NumFuncClusters() {
		t.Errorf("unseen func set assigned out-of-range cluster %d", tp.Func)
	}
}

func TestSimilarSetsClusterTogether(t *testing.T) {
	// Three near-identical file stacks and one disjoint network stack:
	// with a 0.5 cut the file sets share a cluster, the network set does
	// not.
	mkEvent := func(typ trace.EventType, funcs ...[2]string) partition.Event {
		e := partition.Event{Type: typ}
		for i, mf := range funcs {
			e.SysTrace = append(e.SysTrace, trace.Frame{Addr: uint64(i + 1), Module: mf[0], Function: mf[1]})
		}
		return e
	}
	events := []partition.Event{
		mkEvent(trace.EventFileRead, [2]string{"k32", "ReadFile"}, [2]string{"ntdll", "NtReadFile"}, [2]string{"ntos", "NtReadFile"}),
		mkEvent(trace.EventFileRead, [2]string{"k32", "ReadFile"}, [2]string{"ntdll", "NtReadFile"}, [2]string{"ntfs", "Read"}),
		mkEvent(trace.EventFileRead, [2]string{"msvcrt", "fread"}, [2]string{"k32", "ReadFile"}, [2]string{"ntdll", "NtReadFile"}),
		mkEvent(trace.EventNetSend, [2]string{"ws2", "send"}, [2]string{"afd", "Send"}, [2]string{"tcp", "SendData"}),
	}
	enc, err := Fit(events, Config{Linkage: hcluster.Average, LibCut: 0.5, FuncCut: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	t0 := enc.EncodeOne(&s, &events[0])
	t1 := enc.EncodeOne(&s, &events[1])
	t3 := enc.EncodeOne(&s, &events[3])
	if t0.Func != t1.Func {
		t.Errorf("similar file stacks in different func clusters: %d vs %d", t0.Func, t1.Func)
	}
	if t0.Func == t3.Func {
		t.Error("file and network stacks share a func cluster")
	}
	if t0.Lib == t3.Lib {
		t.Error("file and network stacks share a lib cluster")
	}
}

func TestCoalesce(t *testing.T) {
	tuples := []Tuple{
		{1, 10, 100}, {2, 20, 200}, {3, 30, 300}, {4, 40, 400}, {5, 50, 500},
	}
	vecs, starts, err := Coalesce(tuples, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 2 {
		t.Fatalf("got %d windows, want 2 (trailing partial dropped)", len(vecs))
	}
	want0 := []float64{1, 10, 100, 2, 20, 200}
	if !reflect.DeepEqual(vecs[0], want0) {
		t.Errorf("window 0 = %v, want %v", vecs[0], want0)
	}
	if !reflect.DeepEqual(starts, []int{0, 2}) {
		t.Errorf("starts = %v, want [0 2]", starts)
	}
	// Paper configuration: 10-event windows give 30 dimensions.
	long := make([]Tuple, 25)
	vecs, _, err = Coalesce(long, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vecs) != 2 || len(vecs[0]) != 30 {
		t.Errorf("paper windows: %d windows of dim %d, want 2 of 30", len(vecs), len(vecs[0]))
	}
}

func TestCoalesceValidation(t *testing.T) {
	if _, _, err := Coalesce(nil, 0); err == nil {
		t.Error("Coalesce(window=0) succeeded")
	}
	vecs, starts, err := Coalesce([]Tuple{{1, 1, 1}}, 5)
	if err != nil || len(vecs) != 0 || len(starts) != 0 {
		t.Errorf("short input: vecs=%v starts=%v err=%v, want empty", vecs, starts, err)
	}
}
