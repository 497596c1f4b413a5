package etl

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/appsim"
	"repro/internal/trace"
)

// genLenientLog mirrors etl_test.go's generator for this file's tests.
func genLenientLog(t *testing.T, seed int64, pid, events int) *trace.Log {
	t.Helper()
	payload := appsim.ReverseTCPProfile()
	p, err := appsim.NewProcess(appsim.VimProfile(), &payload, appsim.MethodOfflineInfection)
	if err != nil {
		t.Fatal(err)
	}
	log, err := p.GenerateLog(appsim.GenConfig{Seed: seed, Events: events, PayloadFraction: 0.3, PID: pid})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func serialize(t *testing.T, logs ...*trace.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteLogs(&buf, logs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func lenient() ParseOpts { return ParseOpts{Lenient: true} }

func TestLenientParseCleanFileMatchesStrict(t *testing.T) {
	data := serialize(t, genLenientLog(t, 31, 5, 200))
	strict, err := Parse(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	soft, err := ParseWith(bytes.NewReader(data), lenient())
	if err != nil {
		t.Fatal(err)
	}
	if len(soft.ErrorLog) != 0 {
		t.Fatalf("clean file produced %d parse errors", len(soft.ErrorLog))
	}
	if soft.TotalEvents() != strict.TotalEvents() || soft.Dropped != strict.Dropped {
		t.Fatalf("lenient = (%d events, %d dropped), strict = (%d, %d)",
			soft.TotalEvents(), soft.Dropped, strict.TotalEvents(), strict.Dropped)
	}
}

func TestLenientParseRecoversAroundGarbage(t *testing.T) {
	log := genLenientLog(t, 32, 6, 150)
	data := serialize(t, log)
	spans, err := ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	// Inject garbage bytes right before the middle record.
	mid := spans[len(spans)/2]
	var mutated []byte
	mutated = append(mutated, data[:mid.Offset]...)
	mutated = append(mutated, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00)
	mutated = append(mutated, data[mid.Offset:]...)

	if _, err := Parse(bytes.NewReader(mutated)); err == nil {
		t.Fatal("strict parse accepted garbage-bearing stream")
	}
	f, err := ParseWith(bytes.NewReader(mutated), lenient())
	if err != nil {
		t.Fatalf("lenient parse: %v", err)
	}
	if len(f.ErrorLog) == 0 {
		t.Fatal("garbage not reported in ErrorLog")
	}
	got, err := processLog(f, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() < log.Len()*9/10 {
		t.Fatalf("recovered %d/%d events", got.Len(), log.Len())
	}
}

func TestLenientParseToleratesTruncation(t *testing.T) {
	data := serialize(t, genLenientLog(t, 33, 7, 150))
	cut := data[:len(data)*3/4]
	if _, err := Parse(bytes.NewReader(cut)); err == nil {
		t.Fatal("strict parse accepted truncated stream")
	}
	f, err := ParseWith(bytes.NewReader(cut), lenient())
	if err != nil {
		t.Fatalf("lenient parse: %v", err)
	}
	if len(f.ErrorLog) == 0 {
		t.Fatal("truncation not reported in ErrorLog")
	}
	got, err := processLog(f, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("no events recovered before the cut")
	}
}

func TestLenientParseSkipsUndeclaredPIDEvent(t *testing.T) {
	log := genLenientLog(t, 34, 8, 40)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteProcess(8, log.App, log.Modules.Modules()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(log.Events[0]); err != nil {
		t.Fatal(err)
	}
	// Hand-craft an event for an undeclared pid (99): a semantic error
	// whose bytes are structurally fine.
	if err := writeU8(w.bw, recEvent); err != nil {
		t.Fatal(err)
	}
	if err := writeU16(w.bw, uint16(trace.EventFileRead)); err != nil {
		t.Fatal(err)
	}
	if err := writeI64(w.bw, time.Unix(0, 5).UnixNano()); err != nil {
		t.Fatal(err)
	}
	if err := writeU32(w.bw, 99); err != nil {
		t.Fatal(err)
	}
	if err := writeU32(w.bw, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeU8(w.bw, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(log.Events[1]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	data := buf.Bytes()
	if _, err := Parse(bytes.NewReader(data)); err == nil {
		t.Fatal("strict parse accepted undeclared-pid event")
	}
	f, err := ParseWith(bytes.NewReader(data), lenient())
	if err != nil {
		t.Fatalf("lenient parse: %v", err)
	}
	if len(f.ErrorLog) != 1 {
		t.Fatalf("ErrorLog has %d entries, want 1", len(f.ErrorLog))
	}
	if f.ErrorLog[0].Tag != recEvent {
		t.Errorf("ErrorLog tag = 0x%02x, want event", f.ErrorLog[0].Tag)
	}
	got, err := processLog(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Both surrounding events survive the skipped one.
	if got.Len() != 2 {
		t.Fatalf("recovered %d events, want 2", got.Len())
	}
}

func TestLenientParseErrorBudget(t *testing.T) {
	data := serialize(t, genLenientLog(t, 35, 9, 100))
	// Corrupt many records: flip a byte in every fourth record body.
	spans, err := ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), data...)
	for i, sp := range spans {
		if sp.Tag == TagEnd || sp.Tag == TagProcess || i%4 != 0 {
			continue
		}
		// Clobber the tag byte: a structural error per corrupted record.
		mutated[sp.Offset] = 0x77
	}
	defer func(n int) { maxErrors = n }(maxErrors)
	maxErrors = 2
	_, err = ParseWith(bytes.NewReader(mutated), lenient())
	if err == nil {
		t.Fatal("parse under tiny error budget succeeded")
	}
	if !errors.Is(err, ErrTooManyErrors) {
		t.Errorf("error %v does not wrap ErrTooManyErrors", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("error %v does not wrap ErrCorrupt", err)
	}
	// The same stream parses under the default budget.
	maxErrors = DefaultMaxErrors
	if _, err := ParseWith(bytes.NewReader(mutated), lenient()); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}

func TestParseErrorOffsetsIncrease(t *testing.T) {
	data := serialize(t, genLenientLog(t, 36, 10, 120))
	spans, err := ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	mutated := append([]byte(nil), data...)
	for i, sp := range spans {
		if sp.Tag != TagEvent || i%5 != 0 {
			continue
		}
		// Clobber the event's pid field so it fails semantically.
		mutated[int(sp.Offset)+11] = 0xFA
	}
	f, err := ParseWith(bytes.NewReader(mutated), lenient())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.ErrorLog) == 0 {
		t.Fatal("no errors recorded")
	}
	for i := 1; i < len(f.ErrorLog); i++ {
		if f.ErrorLog[i].Offset <= f.ErrorLog[i-1].Offset {
			t.Fatalf("ErrorLog offsets not increasing: %d then %d",
				f.ErrorLog[i-1].Offset, f.ErrorLog[i].Offset)
		}
	}
}

func TestScanRecordsCoversStream(t *testing.T) {
	log := genLenientLog(t, 37, 11, 80)
	data := serialize(t, log)
	spans, err := ScanRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	pos := int64(HeaderLen)
	var events, stacks, procs int
	for _, sp := range spans {
		if sp.Offset != pos {
			t.Fatalf("span at %d, expected %d (gaps/overlaps)", sp.Offset, pos)
		}
		pos += int64(sp.Len)
		switch sp.Tag {
		case TagEvent:
			events++
		case TagStack:
			stacks++
		case TagProcess:
			procs++
		}
	}
	if pos != int64(len(data)) {
		t.Fatalf("spans cover %d bytes, file has %d", pos, len(data))
	}
	if spans[len(spans)-1].Tag != TagEnd {
		t.Error("last span is not the end record")
	}
	if procs != 1 || events != log.Len() {
		t.Errorf("scanned %d processes / %d events, want 1 / %d", procs, events, log.Len())
	}
	if stacks == 0 {
		t.Error("no stack records scanned")
	}
	if _, err := ScanRecords([]byte("nope")); err == nil {
		t.Error("ScanRecords accepted bad header")
	}
}
