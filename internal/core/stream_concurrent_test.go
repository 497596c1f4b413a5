package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"

	"repro/internal/trace"
)

// encodeDetections serialises a verdict sequence so runs can be compared
// byte for byte, not just value for value.
func encodeDetections(t *testing.T, dets []Detection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dets); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// feedAll drives every event through the detector and collects verdicts.
func feedAll(t *testing.T, s *StreamDetector, events []trace.Event) []Detection {
	t.Helper()
	var out []Detection
	for _, e := range events {
		det, err := s.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if det != nil {
			out = append(out, *det)
		}
	}
	return out
}

// TestConcurrentSessionsCheckpointRestore runs N sessions over one shared
// classifier from N goroutines, each checkpointing mid-stream, restoring,
// and continuing — the serving subsystem's access pattern.
// Every session's verdicts must be byte-identical to an uninterrupted
// serial run. Run under -race this also proves session independence: the
// sessions share the classifier and module map but never each other's
// state.
func TestConcurrentSessionsCheckpointRestore(t *testing.T) {
	clf, mal := trainStream(t, 44)
	const sessions = 8
	n := 4 * clf.window

	// Uninterrupted references, computed serially. Each session gets its
	// own offset slice of the stream so their window contents differ.
	want := make([][]Detection, sessions)
	for i := 0; i < sessions; i++ {
		ref, err := clf.Stream(mal.Modules)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = feedAll(t, ref, mal.Events[i:i+n])
	}

	got := make([][]Detection, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			events := mal.Events[i : i+n]
			cut := clf.window + 2 + i // interleave the checkpoint points

			s1, err := clf.Stream(mal.Modules)
			if err != nil {
				errs[i] = err
				return
			}
			var dets []Detection
			for _, e := range events[:cut] {
				det, err := s1.Feed(e)
				if err != nil {
					errs[i] = err
					return
				}
				if det != nil {
					dets = append(dets, *det)
				}
			}
			var ckpt bytes.Buffer
			if err := s1.Checkpoint(&ckpt); err != nil {
				errs[i] = err
				return
			}
			s2, err := NewMonitor(clf).RestoreStream(mal.Modules, &ckpt)
			if err != nil {
				errs[i] = err
				return
			}
			for _, e := range events[cut:] {
				det, err := s2.Feed(e)
				if err != nil {
					errs[i] = err
					return
				}
				if det != nil {
					dets = append(dets, *det)
				}
			}
			got[i] = dets
		}(i)
	}
	wg.Wait()

	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if !bytes.Equal(encodeDetections(t, got[i]), encodeDetections(t, want[i])) {
			t.Errorf("session %d: interrupted verdicts differ from uninterrupted run (%d vs %d detections)",
				i, len(got[i]), len(want[i]))
		}
	}
}

// TestStreamDetectorConcurrentFeedCheckpoint hammers one detector with
// concurrent Feed and Checkpoint calls. Verdict order is undefined under
// concurrent feeding, so the assertions are on the serialised invariants:
// every event is counted exactly once and every checkpoint taken mid-race
// is internally consistent (decodable, partial window only).
func TestStreamDetectorConcurrentFeedCheckpoint(t *testing.T) {
	clf, mal := trainStream(t, 45)
	s, err := clf.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	const feeders = 4
	per := 3 * clf.window
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for _, e := range mal.Events[f*per : (f+1)*per] {
				if _, err := s.Feed(e); err != nil {
					t.Errorf("feeder %d: %v", f, err)
					return
				}
			}
		}(f)
	}
	ckptErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				ckptErr <- err
				return
			}
			fresh, err := clf.Stream(mal.Modules)
			if err != nil {
				ckptErr <- err
				return
			}
			if err := fresh.restore(bytes.NewReader(buf.Bytes())); err != nil {
				ckptErr <- fmt.Errorf("checkpoint %d not restorable: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-ckptErr:
		t.Fatal(err)
	default:
	}
	if s.Consumed() != feeders*per {
		t.Fatalf("Consumed() = %d, want %d", s.Consumed(), feeders*per)
	}
	if s.Skipped() != 0 {
		t.Fatalf("Skipped() = %d, want 0", s.Skipped())
	}
}
