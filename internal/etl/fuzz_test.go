// Fuzz targets for the raw-log parser, in an external test package so the
// seed corpus can come from faultinject (which imports etl).
package etl_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/appsim"
	"repro/internal/etl"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// fuzzStream serialises a small but representative log: process record,
// events, stack records.
func fuzzStream(tb testing.TB) []byte {
	tb.Helper()
	payload := appsim.ReverseTCPProfile()
	p, err := appsim.NewProcess(appsim.VimProfile(), &payload, appsim.MethodOfflineInfection)
	if err != nil {
		tb.Fatal(err)
	}
	log, err := p.GenerateLog(appsim.GenConfig{Seed: 99, Events: 60, PayloadFraction: 0.3, PID: 4})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := etl.WriteLogs(&buf, log); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// seedCorpus adds the clean stream, deterministic single-fault mutants of
// it, and a few degenerate inputs.
func seedCorpus(f *testing.F) {
	data := fuzzStream(f)
	f.Add(data)
	mutants, err := faultinject.Corpus(data, 7, 10)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range mutants {
		f.Add(m)
	}
	f.Add([]byte{})
	f.Add([]byte("LETL"))
	f.Add(data[:len(data)/3])
}

// sameRawFile fails t unless the two parses recovered identical content:
// same drop accounting, error logs (offsets, tags, cause text and resync
// distances) and processes (see sameProcesses).
func sameRawFile(t *testing.T, want, got *etl.RawFile) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("one parse returned a file, the other nil (want=%v got=%v)", want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if want.Dropped != got.Dropped {
		t.Fatalf("dropped: want %d, got %d", want.Dropped, got.Dropped)
	}
	if len(want.ErrorLog) != len(got.ErrorLog) {
		t.Fatalf("error log length: want %d, got %d", len(want.ErrorLog), len(got.ErrorLog))
	}
	for i := range want.ErrorLog {
		w, g := want.ErrorLog[i], got.ErrorLog[i]
		if w.Offset != g.Offset || w.Tag != g.Tag || w.ResyncBytes != g.ResyncBytes || w.Cause.Error() != g.Cause.Error() {
			t.Fatalf("error log [%d]: want %+v (%v), got %+v (%v)", i, w, w.Cause, g, g.Cause)
		}
	}
	sameProcesses(t, want, got)
}

// sameProcesses fails t unless the two files hold the same processes:
// pids, apps, module maps and events with their resolved stacks
// (compared frame by frame, so an empty walk equals a missing one).
func sameProcesses(t *testing.T, want, got *etl.RawFile) {
	t.Helper()
	wPIDs, gPIDs := etl.TracedPIDs(want), etl.TracedPIDs(got)
	if !reflect.DeepEqual(wPIDs, gPIDs) {
		t.Fatalf("pids: want %v, got %v", wPIDs, gPIDs)
	}
	for _, pid := range wPIDs {
		wl, _ := etl.ProcessLog(want, pid)
		gl, _ := etl.ProcessLog(got, pid)
		if wl.App != gl.App || wl.PID != gl.PID || len(wl.Events) != len(gl.Events) {
			t.Fatalf("pid %d: want (%q, %d events), got (%q, %d events)",
				pid, wl.App, len(wl.Events), gl.App, len(gl.Events))
		}
		if !reflect.DeepEqual(wl.Modules, gl.Modules) {
			t.Fatalf("pid %d module map: want %v, got %v", pid, wl.Modules.Modules(), gl.Modules.Modules())
		}
		for j := range wl.Events {
			we, ge := &wl.Events[j], &gl.Events[j]
			if we.Seq != ge.Seq || we.Type != ge.Type || !we.Time.Equal(ge.Time) ||
				we.PID != ge.PID || we.TID != ge.TID || len(we.Stack) != len(ge.Stack) {
				t.Fatalf("pid %d event %d: want %+v, got %+v", pid, j, we, ge)
			}
			for k := range we.Stack {
				if we.Stack[k] != ge.Stack[k] {
					t.Fatalf("pid %d event %d frame %d: want %+v, got %+v",
						pid, j, k, we.Stack[k], ge.Stack[k])
				}
			}
		}
	}
}

// FuzzParseRoundTrip holds the parser to the format on arbitrary input.
// It must not panic. A lenient parse's ErrorLog offsets strictly
// increase and stay within the input. A strict-accepted input is either
// rejected with an error or survives WriteLogs and a re-parse unchanged:
// every process keeps its app, pid, module map and events with resolved
// stacks.
func FuzzParseRoundTrip(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		if soft, err := etl.ParseBytes(in, etl.ParseOpts{Lenient: true}); err == nil {
			prev := int64(-1)
			for i, e := range soft.ErrorLog {
				if e.Offset <= prev || e.Offset > int64(len(in)) {
					t.Fatalf("ErrorLog[%d] offset %d after %d in a %d-byte input", i, e.Offset, prev, len(in))
				}
				prev = e.Offset
			}
		}
		strict, err := etl.ParseBytes(in, etl.ParseOpts{})
		if err != nil || len(etl.TracedPIDs(strict)) == 0 {
			return
		}
		var logs []*trace.Log
		for _, pid := range etl.TracedPIDs(strict) {
			l, _ := etl.ProcessLog(strict, pid)
			logs = append(logs, l)
		}
		var buf bytes.Buffer
		if err := etl.WriteLogs(&buf, logs...); err != nil {
			t.Fatalf("rewriting a strict-accepted file: %v", err)
		}
		again, err := etl.ParseBytes(buf.Bytes(), etl.ParseOpts{})
		if err != nil {
			t.Fatalf("re-parsing the rewritten file: %v", err)
		}
		sameProcesses(t, strict, again)
	})
}

func FuzzParseStrict(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		raw, err := etl.Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		if raw == nil {
			t.Fatal("strict parse returned nil file without error")
		}
		if len(raw.ErrorLog) != 0 {
			t.Fatalf("strict parse produced %d parse errors", len(raw.ErrorLog))
		}
	})
}

func FuzzParseLenient(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		soft, err := etl.ParseWith(bytes.NewReader(in), etl.ParseOpts{Lenient: true})
		if err == nil && soft == nil {
			t.Fatal("lenient parse returned nil file without error")
		}
		// Anything the strict parser accepts, the lenient parser must
		// accept identically: same events, no logged errors.
		strict, serr := etl.Parse(bytes.NewReader(in))
		if serr != nil {
			return
		}
		if err != nil {
			t.Fatalf("strict parse succeeded but lenient failed: %v", err)
		}
		if len(soft.ErrorLog) != 0 {
			t.Fatalf("lenient parse of a strict-valid stream logged %d errors", len(soft.ErrorLog))
		}
		if soft.TotalEvents() != strict.TotalEvents() || soft.Dropped != strict.Dropped {
			t.Fatalf("lenient = (%d events, %d dropped), strict = (%d, %d)",
				soft.TotalEvents(), soft.Dropped, strict.TotalEvents(), strict.Dropped)
		}
	})
}
