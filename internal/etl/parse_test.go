// Tests of the io.Reader parse entry against ParseBytes on the same
// bytes, of span-buffer reuse in ScanRecordsInto, and of event-slice
// sizing.
package etl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/appsim"
	"repro/internal/etl"
	"repro/internal/trace"
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

// multiProcessStream serialises an application log and the background
// processes' logs, their events interleaved by time.
func multiProcessStream(t *testing.T) []byte {
	t.Helper()
	app, err := appsim.NewProcess(appsim.VimProfile(), nil, appsim.MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	log, err := app.GenerateLog(appsim.GenConfig{Seed: 3, Events: 700, PID: 100})
	if err != nil {
		t.Fatal(err)
	}
	logs := []*trace.Log{log}
	for i, bg := range appsim.BackgroundProfiles() {
		p, err := appsim.NewBackgroundProcess(bg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := p.GenerateLog(appsim.GenConfig{Seed: int64(4 + i), Events: 150, PID: 400 + i})
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, l)
	}
	var buf bytes.Buffer
	if err := etl.WriteLogs(&buf, logs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// insertAt returns data with extra inserted before the record at span k.
func insertAt(t *testing.T, data []byte, k int, extra []byte) []byte {
	t.Helper()
	spans, err := etl.ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	at := spans[k].Offset
	return slices.Concat(data[:at], extra, data[at:])
}

// TestParseSizesEventSlices checks the counting pass that sizes each
// process's events. In a clean multi-process stream every process's
// Events is allocated once, at its final length. A stream whose counting
// stops at a corrupt record mid-stream, and one carrying events for an
// undeclared pid, recover the clean stream's processes in lenient mode
// and fail a strict parse, as they did before the counting pass.
func TestParseSizesEventSlices(t *testing.T) {
	data := multiProcessStream(t)
	for _, opts := range []etl.ParseOpts{{}, {Lenient: true}} {
		f, err := etl.ParseBytes(data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(etl.TracedPIDs(f)) < 2 {
			t.Fatalf("stream holds %d processes, want several", len(etl.TracedPIDs(f)))
		}
		for _, pid := range etl.TracedPIDs(f) {
			l, _ := etl.ProcessLog(f, pid)
			if l.Len() == 0 || cap(l.Events) != l.Len() {
				t.Errorf("lenient=%v pid %d: %d events in a slice of capacity %d", opts.Lenient, pid, l.Len(), cap(l.Events))
			}
		}
	}
	clean, err := etl.ParseBytes(data, etl.ParseOpts{})
	if err != nil {
		t.Fatal(err)
	}

	spans, err := etl.ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	// An event record for pid 999, which no process record declares.
	undeclared := make([]byte, 20)
	undeclared[0] = etl.TagEvent
	binary.LittleEndian.PutUint32(undeclared[11:], 999)
	damaged := map[string]struct {
		data   []byte
		errors int
	}{
		"corrupt record mid-stream": {insertAt(t, data, len(spans)/2, []byte{0xDE, 0xAD, 0xBE, 0xEF, 0, 0}), 1},
		"undeclared pid": {
			insertAt(t, insertAt(t, data, len(spans)/3, undeclared), 2*len(spans)/3, undeclared), 2,
		},
	}
	for name, tc := range damaged {
		if _, err := etl.ParseBytes(tc.data, etl.ParseOpts{}); !errors.Is(err, etl.ErrCorrupt) {
			t.Errorf("%s: strict parse error %v, want a corrupt-file error", name, err)
		}
		f, err := etl.ParseBytes(tc.data, etl.ParseOpts{Lenient: true})
		if err != nil {
			t.Fatalf("%s: lenient parse: %v", name, err)
		}
		if len(f.ErrorLog) != tc.errors || f.Dropped != clean.Dropped {
			t.Errorf("%s: %d records skipped and %d stacks dropped, want %d and %d",
				name, len(f.ErrorLog), f.Dropped, tc.errors, clean.Dropped)
		}
		sameProcesses(t, clean, f)
	}
}
