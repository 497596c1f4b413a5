package sim

import "container/heap"

// Event priorities: when two events share a virtual timestamp, the lower
// priority class runs first, and within a class the earlier-scheduled
// event wins (the insertion sequence number is the final tie-break).
// The class order encodes causality at an instant: a replica that
// restores at t must be up before traffic scheduled at t reaches it; a
// promotion at t applies before new sessions arriving at t; completions
// at t finish before a crash at t takes the replica down.
const (
	prioRestore = iota
	prioPromote
	prioArrival
	prioBatch
	prioComplete
	prioShutdown
	prioCrash
)

// scheduled is one pending simulation event on the shared clock.
type scheduled struct {
	at   int64 // virtual nanoseconds
	prio int
	seq  uint64
	run  func()
}

// eventHeap orders scheduled events by (time, priority, sequence).
type eventHeap []*scheduled

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push implements heap.Interface.
func (h *eventHeap) Push(x any) { *h = append(*h, x.(*scheduled)) }

// Pop implements heap.Interface.
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Clock is the simulation's shared discrete-event clock: a single
// min-heap of scheduled events in virtual time, processed one at a time
// in (time, priority, sequence) order. Every replica, session and fault
// advances on this one clock — the shared-clock design from the
// ClusterSimulator pattern — so the global event order is total and
// reproducible, and wall-clock time never appears anywhere in the
// schedule. The two step primitives (HasPendingEvents,
// ProcessNextEvent) decompose the run loop so a harness can observe or
// bound the simulation between single events.
type Clock struct {
	now  int64
	seq  uint64
	heap eventHeap
}

// NewClock returns a clock at virtual time zero with no pending events.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.now }

// Schedule enqueues run at virtual time at with the given priority
// class. Scheduling in the past (at < Now) is a programming error and
// panics: a discrete-event simulation must never rewind.
func (c *Clock) Schedule(at int64, prio int, run func()) {
	if at < c.now {
		panic("sim: scheduling an event in the virtual past")
	}
	c.seq++
	heap.Push(&c.heap, &scheduled{at: at, prio: prio, seq: c.seq, run: run})
}

// HasPendingEvents reports whether any event remains to process.
func (c *Clock) HasPendingEvents() bool { return len(c.heap) > 0 }

// ProcessNextEvent advances the clock to the next event's time and runs
// it. It panics when no events are pending.
func (c *Clock) ProcessNextEvent() {
	if len(c.heap) == 0 {
		panic("sim: ProcessNextEvent on an empty clock")
	}
	ev := heap.Pop(&c.heap).(*scheduled)
	c.now = ev.at
	ev.run()
}
