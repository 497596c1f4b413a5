package etl_test

import (
	"bytes"
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

func benchRaw(b *testing.B) []byte {
	b.Helper()
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		b.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 2000, 10, 10
	logs, err := spec.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := etl.WriteLogs(&buf, logs.Benign); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}
