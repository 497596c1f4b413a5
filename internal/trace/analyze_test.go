package trace

import (
	"strings"
	"testing"
	"time"
)

func analyzedLog(t *testing.T) *Log {
	t.Helper()
	mm := testModuleMap(t)
	base := time.Date(2015, 6, 22, 9, 0, 0, 0, time.UTC)
	mk := func(seq int, typ EventType, tid int, offset time.Duration, addrs ...uint64) Event {
		e := Event{Seq: seq, Type: typ, TID: tid, Time: base.Add(offset)}
		for _, a := range addrs {
			e.Stack = append(e.Stack, mm.Resolve(Frame{Addr: a}))
		}
		return e
	}
	return &Log{
		App:     "vim.exe",
		PID:     7,
		Modules: mm,
		Events: []Event{
			mk(0, EventFileRead, 1, 0, 0x400100, 0x7ff01000),
			mk(1, EventFileWrite, 1, time.Millisecond, 0x400100, 0x7ff01000, 0xfffff80000001000),
			mk(2, EventNetSend, 9, 2*time.Millisecond, 0xdeadbeef), // unresolved
			mk(3, EventFileRead, 1, 3*time.Millisecond, 0x401000),
		},
	}
}

func TestStats(t *testing.T) {
	l := analyzedLog(t)
	s := l.Stats()
	if s.Events != 4 || s.Threads != 2 {
		t.Errorf("events/threads = %d/%d", s.Events, s.Threads)
	}
	if s.ByType[EventFileRead] != 2 || s.ByType[EventNetSend] != 1 {
		t.Errorf("ByType = %v", s.ByType)
	}
	if s.MaxStack != 3 {
		t.Errorf("MaxStack = %d", s.MaxStack)
	}
	if s.UnresolvedFrames != 1 || s.TotalFrames != 7 {
		t.Errorf("frames = %d unresolved of %d", s.UnresolvedFrames, s.TotalFrames)
	}
	if s.Span() != 3*time.Millisecond {
		t.Errorf("Span = %v", s.Span())
	}
	str := s.String()
	if !strings.Contains(str, "FileRead") || !strings.Contains(str, "4 events") {
		t.Errorf("String() = %q", str)
	}
	if empty := (&Log{}).Stats(); empty.Span() != 0 || empty.AvgStack != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}
