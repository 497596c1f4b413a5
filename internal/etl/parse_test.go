// Tests of the io.Reader parse entry against ParseBytes on the same
// bytes, and of span-buffer reuse in ScanRecordsInto.
package etl_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/etl"
)

// TestParseWithShortReads feeds the golden corpus through readers that
// return a byte, or half the request, per Read and requires ParseWith to
// match ParseBytes in both strictness modes.
func TestParseWithShortReads(t *testing.T) {
	readers := map[string]func(io.Reader) io.Reader{
		"OneByteReader": iotest.OneByteReader,
		"HalfReader":    iotest.HalfReader,
	}
	for i, in := range goldenCorpus(t) {
		for _, opts := range []etl.ParseOpts{{}, {Lenient: true}} {
			want, wantErr := etl.ParseBytes(in, opts)
			for name, wrap := range readers {
				got, err := etl.ParseWith(wrap(bytes.NewReader(in)), opts)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("input %d lenient=%v %s: err %v, ParseBytes err %v", i, opts.Lenient, name, err, wantErr)
				}
				sameRawFile(t, want, got)
			}
		}
	}
}

// TestParseWithReadError requires a failing reader to fail the parse in
// both strictness modes with the read error itself: no file, and no
// corrupt-file error or truncation note standing in for it.
func TestParseWithReadError(t *testing.T) {
	data := fuzzStream(t)
	cause := errors.New("device gone")
	cases := map[string]struct {
		r     func() io.Reader
		cause error
	}{
		"ErrReader":     {func() io.Reader { return iotest.ErrReader(cause) }, cause},
		"TimeoutReader": {func() io.Reader { return iotest.TimeoutReader(bytes.NewReader(data)) }, iotest.ErrTimeout},
	}
	for name, tc := range cases {
		for _, opts := range []etl.ParseOpts{{}, {Lenient: true}} {
			f, err := etl.ParseWith(tc.r(), opts)
			if f != nil || !errors.Is(err, tc.cause) || errors.Is(err, etl.ErrCorrupt) {
				t.Errorf("%s lenient=%v: got file=%v err=%v, want no file and a read error wrapping %v",
					name, opts.Lenient, f != nil, err, tc.cause)
			}
		}
	}
}

// TestScanRecordsInto proves the span buffer is reused: scanning into a
// recycled slice appends into the same backing array and returns the
// same spans as a fresh scan.
func TestScanRecordsInto(t *testing.T) {
	data := fuzzStream(t)
	ref, err := etl.ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := etl.ScanRecordsInto(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := etl.ScanRecordsInto(spans[:0], data)
	if err != nil {
		t.Fatal(err)
	}
	if &reused[0] != &spans[0] {
		t.Fatal("ScanRecordsInto reallocated despite sufficient capacity")
	}
	if len(reused) != len(ref) {
		t.Fatalf("span count: want %d, got %d", len(ref), len(reused))
	}
	for i := range ref {
		if reused[i] != ref[i] {
			t.Fatalf("span %d: want %+v, got %+v", i, ref[i], reused[i])
		}
	}
}
