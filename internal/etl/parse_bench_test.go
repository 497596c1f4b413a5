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

// TestParseAllocs bounds the parser's allocations on BenchmarkParseBytes'
// input, in objects and in bytes per parse, through both entries:
// ParseBytes on the in-memory log, and Parse on a reader, which adds one
// copy of the input. The byte bounds are the ones that hold the sized
// event slices, which regrowing by append took to about 661 KB a
// ParseBytes, and the reader's single copy.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	raw := benchRaw(t)
	for _, tc := range []struct {
		name          string
		parse         func() (*etl.RawFile, error)
		allocs, bytes uint64 // budgets per parse
	}{
		// 374 allocations and 350.5k bytes measured.
		{"ParseBytes", func() (*etl.RawFile, error) { return etl.ParseBytes(raw, etl.ParseOpts{}) }, 460, 430_000},
		// 376 allocations and 571.7k bytes measured.
		{"Parse", func() (*etl.RawFile, error) { return etl.Parse(bytes.NewReader(raw)) }, 460, 710_000},
	} {
		parse := func() {
			if _, err := tc.parse(); err != nil {
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
		if allocs > float64(tc.allocs) {
			t.Errorf("%s allocated %.0f times per parse, budget %d", tc.name, allocs, tc.allocs)
		}
		if perParse > tc.bytes {
			t.Errorf("%s allocated %d bytes per parse, budget %d", tc.name, perParse, tc.bytes)
		}
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
