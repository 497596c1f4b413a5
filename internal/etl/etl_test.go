package etl

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/appsim"
	"repro/internal/trace"
)

// genLog produces a simulated log for round-trip testing.
func genLog(t *testing.T, seed int64, pid, events int) *trace.Log {
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

func TestRoundTripSingleProcess(t *testing.T) {
	orig := genLog(t, 1, 42, 300)
	var buf bytes.Buffer
	if err := WriteLogs(&buf, orig); err != nil {
		t.Fatalf("WriteLogs: %v", err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", f.Dropped)
	}
	got, err := f.Slice(42)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	assertLogsEqual(t, orig, got)
	if _, err := f.SliceApp("vim.exe"); err != nil {
		t.Errorf("SliceApp(vim.exe): %v", err)
	}
	if only, err := f.SliceApp(""); err != nil || only != got {
		t.Errorf("SliceApp(\"\") = %p, %v; want the only process %p", only, err, got)
	}
	if _, err := f.SliceApp("chrome.exe"); err == nil {
		t.Error("SliceApp(chrome.exe) found a log in a vim-only file")
	}
	if _, err := f.Slice(99); err == nil {
		t.Error("Slice(99) found a log for an untraced pid")
	}
}

func TestRoundTripMultiProcessInterleaved(t *testing.T) {
	a := genLog(t, 2, 10, 250)
	b := genLog(t, 3, 11, 250)
	var buf bytes.Buffer
	if err := WriteLogs(&buf, a, b); err != nil {
		t.Fatalf("WriteLogs: %v", err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	pids := f.PIDs()
	if len(pids) != 2 || pids[0] != 10 || pids[1] != 11 {
		t.Fatalf("PIDs() = %v, want [10 11]", pids)
	}
	gotA, _ := f.Slice(10)
	gotB, _ := f.Slice(11)
	assertLogsEqual(t, a, gotA)
	assertLogsEqual(t, b, gotB)
	if _, err := f.SliceApp(""); err == nil || !strings.Contains(err.Error(), "2 processes") {
		t.Errorf("SliceApp(\"\") on a two-process file: err %v, want one naming the process count", err)
	}
}

func assertLogsEqual(t *testing.T, want, got *trace.Log) {
	t.Helper()
	if got.App != want.App || got.PID != want.PID {
		t.Fatalf("log identity = (%q,%d), want (%q,%d)", got.App, got.PID, want.App, want.PID)
	}
	if got.Len() != want.Len() {
		t.Fatalf("event count = %d, want %d", got.Len(), want.Len())
	}
	for i := range want.Events {
		we, ge := want.Events[i], got.Events[i]
		if ge.Seq != i {
			t.Fatalf("event %d has Seq %d", i, ge.Seq)
		}
		if ge.Type != we.Type || !ge.Time.Equal(we.Time) || ge.TID != we.TID {
			t.Fatalf("event %d = {%v %v %d}, want {%v %v %d}",
				i, ge.Type, ge.Time, ge.TID, we.Type, we.Time, we.TID)
		}
		if len(ge.Stack) != len(we.Stack) {
			t.Fatalf("event %d stack len = %d, want %d", i, len(ge.Stack), len(we.Stack))
		}
		for j := range we.Stack {
			if ge.Stack[j] != we.Stack[j] {
				t.Fatalf("event %d frame %d = %v, want %v", i, j, ge.Stack[j], we.Stack[j])
			}
		}
	}
	// Module maps must survive the trip too.
	if len(got.Modules.Modules()) != len(want.Modules.Modules()) {
		t.Fatalf("module count = %d, want %d", len(got.Modules.Modules()), len(want.Modules.Modules()))
	}
}

func TestWriteLogsValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLogs(&buf); err == nil {
		t.Error("WriteLogs() with no logs succeeded")
	}
	if err := WriteLogs(&buf, &trace.Log{App: "x", PID: 1}); err == nil {
		t.Error("WriteLogs() with nil module map succeeded")
	}
}

func TestWriterRejectsUndeclaredPID(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	err := w.WriteEvent(trace.Event{PID: 5, Type: trace.EventFileRead, Time: time.Unix(0, 1)})
	if err == nil {
		t.Fatal("WriteEvent for undeclared pid succeeded")
	}
	// The writer stays failed.
	if err2 := w.Close(); err2 == nil {
		t.Error("Close() after failure returned nil")
	}
}

func TestWriterRejectsDuplicateProcess(t *testing.T) {
	log := genLog(t, 4, 7, 50)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteProcess(7, log.App, log.Modules.Modules()); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteProcess(7, log.App, log.Modules.Modules()); err == nil {
		t.Error("duplicate WriteProcess succeeded")
	}
}

func TestParseCorruptInputs(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := WriteLogs(&buf, genLog(t, 5, 3, 40)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE\x01\x00\xff")},
		{"truncated header", []byte("LE")},
		{"bad version", []byte("LETL\x09\x00\xff")},
		{"unknown tag", append([]byte("LETL\x01\x00"), 0x77)},
		{"truncated mid-file", valid[:len(valid)/2]},
		{"missing end", valid[:len(valid)-1]},
		{"bytes after end", append(append([]byte{}, valid...), '0')},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(bytes.NewReader(tt.data))
			if err == nil {
				t.Fatal("Parse succeeded on corrupt input")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("error %v does not wrap ErrCorrupt", err)
			}
		})
	}
}

func TestParseEventBeforeProcessRejected(t *testing.T) {
	// recEvent for a pid with no process record.
	data := []byte("LETL\x01\x00")
	data = append(data, recEvent)
	data = append(data, 0x01, 0x00)                                     // type
	data = append(data, 0, 0, 0, 0, 0, 0, 0, 0)                         // time
	data = append(data, 0x05, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00) // pid, tid
	data = append(data, 0x00)                                           // flags
	data = append(data, recEnd)
	if _, err := Parse(bytes.NewReader(data)); err == nil {
		t.Fatal("Parse accepted event before process record")
	}
}

func TestParseOrphanStackDropped(t *testing.T) {
	log := genLog(t, 6, 9, 30)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteProcess(9, log.App, log.Modules.Modules()); err != nil {
		t.Fatal(err)
	}
	// Emit a stack record with no pending event.
	if err := writeU8(w.bw, recStack); err != nil {
		t.Fatal(err)
	}
	if err := writeU32(w.bw, 9); err != nil {
		t.Fatal(err)
	}
	if err := writeU32(w.bw, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeU16(w.bw, 1); err != nil {
		t.Fatal(err)
	}
	if err := writeU64(w.bw, 0x401000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", f.Dropped)
	}
}

func TestParseResolvesFrames(t *testing.T) {
	orig := genLog(t, 7, 12, 100)
	var buf bytes.Buffer
	if err := WriteLogs(&buf, orig); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := f.Slice(12)
	// Benign frames must re-resolve to module/function names.
	var sawResolved bool
	for _, e := range got.Events {
		for _, fr := range e.Stack {
			if fr.Module == "vim.exe" && fr.Function != "" {
				sawResolved = true
			}
		}
	}
	if !sawResolved {
		t.Error("no resolved application frames after parsing")
	}
}

func TestWriterStringTooLong(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	long := strings.Repeat("x", maxString+1)
	mod, err := trace.NewModule("m.exe", trace.ModuleApp, 0x1000, 0x100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteProcess(1, long, []*trace.Module{mod}); err == nil {
		t.Error("overlong app name accepted")
	}
}

// Property: Parse never panics on arbitrary byte soup — it either returns
// a file or an error.
func TestParseNeverPanicsQuick(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Parse(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: flipping one byte of a valid file never panics and, when it
// parses, yields a structurally sane result.
func TestParseBitflipRobustness(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLogs(&buf, genLog(t, 9, 1, 40)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, len(valid))
		copy(data, valid)
		data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on bitflip trial %d: %v", trial, r)
				}
			}()
			f, err := Parse(bytes.NewReader(data))
			if err != nil {
				return
			}
			for _, pid := range f.PIDs() {
				log, err := f.Slice(pid)
				if err != nil || log == nil {
					t.Fatalf("inconsistent parse on trial %d", trial)
				}
			}
		}()
	}
}
