package trace

import (
	"testing"
	"testing/quick"
)

func TestEventTypeString(t *testing.T) {
	tests := []struct {
		typ  EventType
		want string
	}{
		{EventUnknown, "Unknown"},
		{EventSysCallEnter, "SysCallEnter"},
		{EventNetConnect, "NetConnect"},
		{EventUIMessage, "UIMessage"},
		{EventType(999), "EventType(999)"},
		{EventType(-3), "EventType(-3)"},
	}
	for _, tt := range tests {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("EventType(%d).String() = %q, want %q", int(tt.typ), got, tt.want)
		}
	}
}

func TestEventTypeRoundTrip(t *testing.T) {
	for i := 1; i < NumEventTypes(); i++ {
		typ := EventType(i)
		got, ok := ParseEventType(typ.String())
		if !ok {
			t.Fatalf("ParseEventType(%q) not recognised", typ.String())
		}
		if got != typ {
			t.Errorf("ParseEventType(%q) = %v, want %v", typ.String(), got, typ)
		}
	}
}

func TestParseEventTypeUnknown(t *testing.T) {
	for _, name := range []string{"", "Unknown", "NoSuchEvent", "syscallenter"} {
		if got, ok := ParseEventType(name); ok {
			t.Errorf("ParseEventType(%q) = %v, ok=true; want not recognised", name, got)
		}
	}
}

func TestEventTypeValid(t *testing.T) {
	if EventUnknown.Valid() {
		t.Error("EventUnknown.Valid() = true, want false")
	}
	if !EventSysCallEnter.Valid() {
		t.Error("EventSysCallEnter.Valid() = false, want true")
	}
	if EventType(NumEventTypes()).Valid() {
		t.Error("out-of-range event type reported valid")
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Addr: 0x401000, Module: "vim.exe", Function: "main_loop"}
	if got, want := f.String(), "vim.exe!main_loop@0x401000"; got != want {
		t.Errorf("Frame.String() = %q, want %q", got, want)
	}
	unresolved := Frame{Addr: 0xdead}
	if got, want := unresolved.String(), "?!?@0xdead"; got != want {
		t.Errorf("unresolved Frame.String() = %q, want %q", got, want)
	}
	if unresolved.Resolved() {
		t.Error("unresolved frame reports Resolved() = true")
	}
}

func TestStackWalkClone(t *testing.T) {
	s := StackWalk{{Addr: 1}, {Addr: 2}}
	c := s.Clone()
	c[0].Addr = 99
	if s[0].Addr != 1 {
		t.Error("Clone did not deep-copy frames")
	}
	if got := StackWalk(nil).Clone(); got != nil {
		t.Errorf("nil.Clone() = %v, want nil", got)
	}
}

func TestStackWalkAddrs(t *testing.T) {
	s := StackWalk{{Addr: 10}, {Addr: 20}, {Addr: 30}}
	got := s.Addrs()
	want := []uint64{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("Addrs() len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Addrs()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLogCloneIndependence(t *testing.T) {
	l := &Log{
		App: "vim.exe",
		PID: 42,
		Events: []Event{
			{Seq: 0, Type: EventFileRead, Stack: StackWalk{{Addr: 5}}},
		},
	}
	c := l.Clone()
	c.Events[0].Stack[0].Addr = 777
	c.Events[0].Type = EventNetSend
	if l.Events[0].Stack[0].Addr != 5 || l.Events[0].Type != EventFileRead {
		t.Error("Clone shares event state with the original log")
	}
	if c.App != l.App || c.PID != l.PID {
		t.Error("Clone dropped scalar fields")
	}
}

func TestStackWalkClonePropertyQuick(t *testing.T) {
	// Property: cloning preserves addresses for arbitrary stacks.
	f := func(addrs []uint64) bool {
		s := make(StackWalk, len(addrs))
		for i, a := range addrs {
			s[i].Addr = a
		}
		c := s.Clone()
		if len(c) != len(s) {
			return false
		}
		for i := range s {
			if c[i].Addr != s[i].Addr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
