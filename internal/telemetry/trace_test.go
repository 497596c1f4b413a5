package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestTraceParentRoundTrip(t *testing.T) {
	tc := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	if !tc.Valid() {
		t.Fatal("fresh trace context not valid")
	}
	hdr := tc.TraceParent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent layout wrong: %q", hdr)
	}
	got, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("ParseTraceParent rejected own output %q", hdr)
	}
	if got != tc {
		t.Fatalf("round trip changed the context: %+v != %+v", got, tc)
	}
}

func TestTraceContextChild(t *testing.T) {
	parent := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}
	child := parent.Child()
	if child.Trace != parent.Trace {
		t.Fatal("child left the parent's trace")
	}
	if child.Span == parent.Span {
		t.Fatal("child reused the parent's span ID")
	}
	if !child.Valid() {
		t.Fatal("child context not valid")
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	valid := TraceContext{Trace: NewTraceID(), Span: NewSpanID()}.TraceParent()
	cases := map[string]string{
		"empty":          "",
		"truncated":      valid[:54],
		"bad separators": strings.Replace(valid, "-", "_", 1),
		"non-hex trace":  "00-zz" + valid[5:],
		"non-hex flags":  valid[:53] + "zz",
		"zero trace":     "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span":      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"long no dash":   valid + "x",
		// W3C allows lowercase hex only, forbids version ff and fixes
		// version 00 at 55 characters.
		"uppercase trace":   "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"uppercase span":    "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",
		"uppercase version": "CC" + valid[2:],
		"version ff":        "ff" + valid[2:],
		"version 00 suffix": valid + "-extra",
	}
	for name, in := range cases {
		if _, ok := ParseTraceParent(in); ok {
			t.Errorf("%s: ParseTraceParent(%q) accepted", name, in)
		}
	}
	// The W3C forward-compatibility rule: later versions may append
	// dash-separated fields.
	if _, ok := ParseTraceParent("cc" + valid[2:] + "-extra"); !ok {
		t.Error("future-version suffix rejected")
	}
	if _, ok := ParseTraceParent("cc" + valid[2:]); !ok {
		t.Error("unknown version byte rejected")
	}
}

// FuzzParseTraceParent holds the parser to a faithful round trip: an
// accepted header's ID fields are the parsed IDs' own renderings, and
// the context's header parses back to the same context.
func FuzzParseTraceParent(f *testing.F) {
	const valid = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, s := range []string{
		valid,
		"cc" + valid[2:] + "-extra",
		valid + "-extra",
		"ff" + valid[2:],
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if s[3:35] != tc.Trace.String() || s[36:52] != tc.Span.String() {
			t.Fatalf("ParseTraceParent(%q) = %s/%s", s, tc.Trace, tc.Span)
		}
		if back, ok := ParseTraceParent(tc.TraceParent()); !ok || back != tc {
			t.Fatalf("%q re-parsed as %+v, %v; want %+v", tc.TraceParent(), back, ok, tc)
		}
	})
}

func TestTraceContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("empty context claims a trace")
	}
	if got := TraceIDFrom(ctx); got != "" {
		t.Fatalf("TraceIDFrom(empty) = %q, want \"\"", got)
	}

	ctx2, minted := EnsureTraceContext(ctx)
	if !minted.Valid() {
		t.Fatal("EnsureTraceContext minted an invalid context")
	}
	if got, ok := TraceContextFrom(ctx2); !ok || got != minted {
		t.Fatal("minted context not carried")
	}
	// Ensure on an already-traced context is a no-op.
	ctx3, again := EnsureTraceContext(ctx2)
	if again != minted || ctx3 != ctx2 {
		t.Fatal("EnsureTraceContext re-minted over an existing trace")
	}
	if got := TraceIDFrom(ctx2); got != minted.Trace.String() {
		t.Fatalf("TraceIDFrom = %q, want %q", got, minted.Trace.String())
	}
}

// TestConcurrentTraceIDsUnique generates IDs from many goroutines at
// once (run under -race) and requires them all distinct: the generator
// must be both safe and collision-free.
func TestConcurrentTraceIDsUnique(t *testing.T) {
	const workers, perWorker = 16, 512
	var wg sync.WaitGroup
	ids := make([][]TraceID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]TraceID, perWorker)
			for i := range out {
				out[i] = NewTraceID()
			}
			ids[w] = out
		}(w)
	}
	wg.Wait()
	seen := make(map[TraceID]struct{}, workers*perWorker)
	for _, chunk := range ids {
		for _, id := range chunk {
			if id.IsZero() {
				t.Fatal("generated a zero trace ID")
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("trace ID collision: %s", id)
			}
			seen[id] = struct{}{}
		}
	}
}
