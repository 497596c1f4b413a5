package sim

import "testing"

// TestClockOrdering proves the heap's total order: time first, then the
// priority class, then insertion sequence.
func TestClockOrdering(t *testing.T) {
	c := NewClock()
	var got []string
	record := func(s string) func() { return func() { got = append(got, s) } }

	c.Schedule(20, prioBatch, record("batch@20"))
	c.Schedule(10, prioCrash, record("crash@10"))
	c.Schedule(10, prioRestore, record("restore@10"))
	c.Schedule(10, prioComplete, record("complete@10-a"))
	c.Schedule(10, prioComplete, record("complete@10-b"))
	c.Schedule(5, prioArrival, record("arrival@5"))

	for c.HasPendingEvents() {
		c.ProcessNextEvent()
	}
	want := []string{"arrival@5", "restore@10", "complete@10-a", "complete@10-b", "crash@10", "batch@20"}
	if len(got) != len(want) {
		t.Fatalf("processed %d events, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
	if c.Now() != 20 {
		t.Fatalf("clock at %d after drain, want 20", c.Now())
	}
}

// TestClockSameInstantScheduling proves events scheduled at the current
// instant (at == Now) are legal and run after the current event.
func TestClockSameInstantScheduling(t *testing.T) {
	c := NewClock()
	var got []string
	c.Schedule(10, prioArrival, func() {
		got = append(got, "arrival")
		c.Schedule(10, prioBatch, func() { got = append(got, "batch") })
	})
	for c.HasPendingEvents() {
		c.ProcessNextEvent()
	}
	if len(got) != 2 || got[0] != "arrival" || got[1] != "batch" {
		t.Fatalf("got %v, want [arrival batch]", got)
	}
}

// TestClockRejectsPast proves scheduling before Now panics: a
// discrete-event simulation must never rewind.
func TestClockRejectsPast(t *testing.T) {
	c := NewClock()
	c.Schedule(10, prioArrival, func() {})
	c.ProcessNextEvent()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.Schedule(5, prioArrival, func() {})
}

// TestClockPeek proves that observing pending events does not advance
// the clock; processing the event does, to its time.
func TestClockPeek(t *testing.T) {
	c := NewClock()
	c.Schedule(42, prioArrival, func() {})
	if !c.HasPendingEvents() || c.Now() != 0 {
		t.Fatalf("pending %v at %d, want the event pending at 0", c.HasPendingEvents(), c.Now())
	}
	c.ProcessNextEvent()
	if c.HasPendingEvents() || c.Now() != 42 {
		t.Fatalf("pending %v at %d after processing, want none at 42", c.HasPendingEvents(), c.Now())
	}
}
