package etl_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/etl"
)

// BenchmarkParseBytes measures the parser on a generated benign log.
func BenchmarkParseBytes(b *testing.B) {
	raw := benchRaw(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := etl.ParseBytes(raw, etl.ParseOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseStream times the io.Reader entry on the same bytes: one
// copy of the input plus the same parse.
func BenchmarkParseStream(b *testing.B) {
	raw := benchRaw(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := etl.Parse(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseAllocs bounds ParseBytes' allocations on BenchmarkParseBytes'
// input, in objects and in bytes per parse. The byte bound is the one
// that holds the sized event slices: regrowing them by append allocated
// about 661 KB a parse.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		parseAllocBudget = 460     // allocs per parse; 374 measured
		parseBytesBudget = 430_000 // bytes per parse; 350.5k measured
	)
	raw := benchRaw(t)
	parse := func() {
		if _, err := etl.ParseBytes(raw, etl.ParseOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, parse)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		parse()
	}
	runtime.ReadMemStats(&after)
	perParse := (after.TotalAlloc - before.TotalAlloc) / runs
	if allocs > parseAllocBudget {
		t.Errorf("ParseBytes allocated %.0f times per parse, budget %d", allocs, parseAllocBudget)
	}
	if perParse > parseBytesBudget {
		t.Errorf("ParseBytes allocated %d bytes per parse, budget %d", perParse, parseBytesBudget)
	}
}

func benchRaw(tb testing.TB) []byte {
	tb.Helper()
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		tb.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 2000, 10, 10
	logs, err := spec.Generate(1)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := etl.WriteLogs(&buf, logs.Benign); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
