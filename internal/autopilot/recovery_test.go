package autopilot

import (
	"errors"
	"testing"

	"repro/internal/faultinject"
)

// TestCrashMatrixConvergesToSamePromotion kills the controller at every
// journaled transition and at the mid-stage fault points, then restarts
// it against the same journal and registry and asserts the resumed run
// converges to exactly the state an uninterrupted run reaches: the
// candidate promoted once (no duplicate pointer transitions), serving
// reloaded onto it, and the journal closed with a promoted cycle-done.
func TestCrashMatrixConvergesToSamePromotion(t *testing.T) {
	points := []struct {
		point string
		// fresh marks points where the crash precedes the first journal
		// record, so recovery starts a fresh cycle instead of resuming.
		fresh bool
	}{
		{point: "autopilot/journal/cycle-start", fresh: true},
		{point: "registry/publish/bundle"},
		{point: "registry/publish/manifest"},
		{point: "autopilot/journal/published"},
		{point: "autopilot/before-shadow"},
		{point: "autopilot/journal/shadow-started"},
		{point: "autopilot/journal/evaluated"},
		{point: "registry/setcurrent"},
		{point: "autopilot/mid-promotion"},
		{point: "autopilot/journal/promoted"},
		{point: "autopilot/journal/cycle-done"},
	}
	_, cand := testBundles(t)
	for _, tc := range points {
		t.Run(tc.point, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			fx := newFixture(t, staticTrainer(cand))
			ctl := fx.controller(t)

			faultinject.ArmCrash(tc.point)
			var crash *faultinject.CrashPanic
			func() {
				defer func() { crash = faultinject.Recover(recover()) }()
				_, _ = ctl.RunCycle()
				t.Errorf("RunCycle returned past armed crash point %s", tc.point)
			}()
			if crash == nil || crash.Point != tc.point {
				t.Fatalf("recovered crash %+v, want %s", crash, tc.point)
			}

			// "Restart": a fresh controller over the same journal and
			// registry, bound to a fresh serving side (the old process
			// died; its in-memory canary and counters died with it).
			fx.fake.shadow = ""
			ctl2 := fx.controller(t)
			if st := ctl2.Snapshot(); st.Resuming == tc.fresh {
				t.Errorf("resuming = %v after crash at %s, want %v", st.Resuming, tc.point, !tc.fresh)
			}
			res, err := ctl2.RunCycle()
			if err != nil {
				t.Fatalf("resumed RunCycle: %v", err)
			}
			if res.Outcome != OutcomePromoted || res.Cycle != 1 {
				t.Fatalf("resumed result = %+v, want cycle 1 promoted", res)
			}

			// Converged state is identical to an uninterrupted run's.
			ptr, ok, err := fx.store.Current()
			if err != nil || !ok || ptr.ID != res.Entry || ptr.ID == fx.champion.ID {
				t.Errorf("current = %+v ok=%v err=%v, want the candidate %s", ptr, ok, err, res.Entry)
			}
			if fx.fake.loaded != res.Entry {
				t.Errorf("serving loaded %q, want %s", fx.fake.loaded, res.Entry)
			}
			if fx.fake.shadow != "" {
				t.Error("canary left running after the resumed cycle")
			}
			// Exactly one promotion transition to the candidate: resume
			// never re-drives a side effect that already landed.
			hist, err := fx.store.History()
			if err != nil {
				t.Fatal(err)
			}
			promotions := 0
			for _, tr := range hist {
				if tr.To == res.Entry {
					promotions++
				}
			}
			if promotions != 1 {
				t.Errorf("history has %d transitions to %s, want exactly 1", promotions, res.Entry)
			}
			// The journal closes with a promoted cycle-done for cycle 1.
			recs := ctl2.jrn.records()
			if len(recs) == 0 {
				t.Fatal("empty journal after resumed cycle")
			}
			last := recs[len(recs)-1]
			if last.State != stateCycleDone || last.Outcome != OutcomePromoted || last.Cycle != 1 {
				t.Errorf("journal tail = %+v, want cycle 1 cycle-done promoted", last)
			}
			// A third controller sees a clean history: nothing to resume.
			ctl3 := fx.controller(t)
			if st := ctl3.Snapshot(); st.Resuming || st.ConsecutiveFailures != 0 {
				t.Errorf("post-convergence restart not clean: %+v", st)
			}
		})
	}
}

// TestCrashDuringRejectedEvaluationResumesToRejection kills the
// controller after a failing evaluation was journaled but before the
// cycle closed, and asserts the resumed run finishes the cycle as
// rejected without re-shadowing or touching the champion.
func TestCrashDuringRejectedEvaluationResumesToRejection(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	fx.fake.cmp = badComparison()
	ctl := fx.controller(t)

	faultinject.ArmCrash("autopilot/journal/cycle-done")
	var crash *faultinject.CrashPanic
	func() {
		defer func() { crash = faultinject.Recover(recover()) }()
		_, _ = ctl.RunCycle()
	}()
	if crash == nil {
		t.Fatal("no crash fired")
	}

	fx.fake.shadow = ""
	starts := fx.fake.shadowStarts
	ctl2 := fx.controller(t)
	res, err := ctl2.RunCycle()
	if err != nil {
		t.Fatalf("resumed RunCycle: %v", err)
	}
	if res.Outcome != OutcomeRejected {
		t.Fatalf("resumed outcome = %q, want rejected", res.Outcome)
	}
	if fx.fake.shadowStarts != starts {
		t.Error("resume re-shadowed an already-evaluated candidate")
	}
	if ptr, _, _ := fx.store.Current(); ptr.ID != fx.champion.ID {
		t.Errorf("rejected resume moved current to %s", ptr.ID)
	}
}

// TestDiskFullDuringCycleRetriesThenFails injects a persistent write
// error into the registry publish path and asserts the cycle burns its
// retry budget, fails cleanly, and the next cycle succeeds once the
// disk recovers.
func TestDiskFullDuringCycleRetriesThenFails(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	fx.cfg.StageRetries = 2
	ctl := fx.controller(t)

	faultinject.ArmError("registry/publish/bundle", errDiskFull, 3) // every attempt
	res, err := ctl.RunCycle()
	if err == nil {
		t.Fatal("cycle succeeded against a full disk")
	}
	if res.Outcome != OutcomeFailed {
		t.Fatalf("outcome = %q, want failed", res.Outcome)
	}
	if st := ctl.Snapshot(); st.ConsecutiveFailures != 1 {
		t.Errorf("consecutive failures = %d, want 1", st.ConsecutiveFailures)
	}

	res, err = ctl.RunCycle()
	if err != nil || res.Outcome != OutcomePromoted {
		t.Fatalf("post-recovery cycle = %+v err %v, want promoted", res, err)
	}
}

// TestJournalDiskFullKeepsCycleResumable makes the journal wholly
// unwritable mid-cycle: the published record cannot land, and neither
// can the failed cycle-done. The cycle stays mid-flight on disk, and
// the restarted controller resumes and finishes it.
func TestJournalDiskFullKeepsCycleResumable(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	_, cand := testBundles(t)
	fx := newFixture(t, staticTrainer(cand))
	fx.cfg.StageRetries = 0
	ctl := fx.controller(t)

	faultinject.ArmError("autopilot/journal/published", errDiskFull, -1)
	faultinject.ArmError("autopilot/journal/cycle-done", errDiskFull, -1)
	if _, err := ctl.RunCycle(); err == nil {
		t.Fatal("cycle succeeded with an unwritable journal")
	}
	faultinject.Reset()

	ctl2 := fx.controller(t)
	if st := ctl2.Snapshot(); !st.Resuming {
		t.Fatal("interrupted cycle not recovered from the journal")
	}
	res, err := ctl2.RunCycle()
	if err != nil || res.Outcome != OutcomePromoted {
		t.Fatalf("resumed cycle = %+v err %v, want promoted", res, err)
	}
}

var errDiskFull = errors.New("no space left on device")
