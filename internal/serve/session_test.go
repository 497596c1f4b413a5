package serve

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTurnsFollowAdmissionOrder: batches score in the order their tickets
// were taken, whatever order their request goroutines reach the session
// in, and quiesce refuses new batches at once but returns only after
// every admitted batch has scored.
func TestTurnsFollowAdmissionOrder(t *testing.T) {
	sess := &session{}
	sess.turn.L = &sess.mu
	const batches = 8
	tickets := make([]uint64, batches)
	for i := range tickets {
		tk, err := sess.takeTicket(i+1, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	if q := sess.Queued(); q != batches*(batches+1)/2 {
		t.Fatalf("queued %d events after admission, want %d", q, batches*(batches+1)/2)
	}
	if sess.idleSince(time.Now().Add(time.Hour)) {
		t.Fatal("a session with admitted batches reads as idle")
	}

	// The test holds the first turn while the other batches' goroutines
	// start, last ticket first, and while quiesce starts waiting. order
	// is appended to only by the holder of the turn.
	sess.awaitTurn(tickets[0], 1)
	order := []int{0}
	var wg sync.WaitGroup
	for i := batches - 1; i > 0; i-- {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess.awaitTurn(tickets[i], i+1)
			defer sess.endTurn()
			order = append(order, i)
		}(i)
		runtime.Gosched()
	}
	scored := make(chan int, 1)
	go func() {
		sess.quiesce()
		scored <- len(order)
	}()
	for closed := false; !closed; runtime.Gosched() {
		sess.mu.Lock()
		closed = sess.closed
		sess.mu.Unlock()
	}
	if _, err := sess.takeTicket(1, 1<<10); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("ticket while quiescing: err %v, want ErrSessionClosed", err)
	}
	sess.endTurn()
	wg.Wait()
	if n := <-scored; n != batches {
		t.Fatalf("quiesce returned after %d of %d batches scored", n, batches)
	}

	want := make([]int, batches)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("scoring order %v, want admission order %v", order, want)
	}
	if q := sess.Queued(); q != 0 {
		t.Fatalf("queued %d events after every turn, want 0", q)
	}
}
