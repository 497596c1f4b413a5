package fleet

import (
	"bytes"
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/registry"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestSyncOnceMirrorsPrimary: one round against a primary with two
// committed entries and a promoted pointer leaves the replica holding
// byte-identical bundles, a verbatim pointer (same entry, same
// generation), and fires the hot-reload hook exactly once; a second
// round is a generation-matched no-op.
func TestSyncOnceMirrorsPrimary(t *testing.T) {
	primary, champ := newPrimary(t)
	chall := publishChallenger(t, primary)
	if _, err := primary.Promote(chall.ID, "test"); err != nil {
		t.Fatal(err)
	}
	replica := newReplicaStore(t, "replica")

	advances := 0
	y := &Syncer{
		Source:  primary,
		Replica: replica,
		Logger:  discardLogger(),
		OnAdvance: func(ptr registry.Pointer) error {
			advances++
			if ptr.ID != chall.ID {
				t.Errorf("OnAdvance pointer at %s, want %s", ptr.ID, chall.ID)
			}
			return nil
		},
	}
	if err := y.SyncOnce(); err != nil {
		t.Fatalf("sync: %v", err)
	}

	for _, man := range []registry.Manifest{champ, chall} {
		got := readBundle(t, replica, man.ID)
		want := readBundle(t, primary, man.ID)
		if !bytes.Equal(got, want) {
			t.Errorf("entry %s differs between replica and primary", man.ID)
		}
		rman, err := replica.Get(man.ID)
		if err != nil {
			t.Fatalf("replica manifest %s: %v", man.ID, err)
		}
		if rman.SHA256 != man.SHA256 {
			t.Errorf("entry %s manifest hash %s, want %s", man.ID, rman.SHA256, man.SHA256)
		}
	}
	pptr, _, err := primary.Current()
	if err != nil {
		t.Fatal(err)
	}
	rptr, ok, err := replica.Current()
	if err != nil || !ok {
		t.Fatalf("replica pointer: ok=%v err=%v", ok, err)
	}
	if rptr.ID != pptr.ID || rptr.Generation != pptr.Generation {
		t.Fatalf("replica pointer %s gen %d, want %s gen %d", rptr.ID, rptr.Generation, pptr.ID, pptr.Generation)
	}
	if advances != 1 {
		t.Errorf("OnAdvance fired %d times, want 1", advances)
	}

	if err := y.SyncOnce(); err != nil {
		t.Fatalf("steady-state sync: %v", err)
	}
	if advances != 1 {
		t.Errorf("OnAdvance fired on a generation-matched no-op round")
	}
}

// flakySource fails OpenBundle until repaired — a primary whose entry
// fetches error mid-transfer.
type flakySource struct {
	*registry.Store
	broken bool
}

func (f *flakySource) OpenBundle(id string) (io.ReadCloser, error) {
	if f.broken {
		return nil, errors.New("synthetic transfer failure")
	}
	return f.Store.OpenBundle(id)
}

// TestSyncFailStatic: a failed round changes nothing on the replica —
// no pointer movement, no hook — and the next clean round converges.
func TestSyncFailStatic(t *testing.T) {
	primary, champ := newPrimary(t)
	replica := newReplicaStore(t, "replica")
	src := &flakySource{Store: primary, broken: true}
	advances := 0
	y := &Syncer{
		Source: src, Replica: replica, Logger: discardLogger(),
		OnAdvance: func(registry.Pointer) error { advances++; return nil },
	}

	err := y.SyncOnce()
	if err == nil || !strings.Contains(err.Error(), "synthetic transfer failure") {
		t.Fatalf("broken-source sync err %v, want the transfer failure", err)
	}
	if _, ok, _ := replica.Current(); ok {
		t.Error("failed round left a pointer on the replica")
	}
	if advances != 0 {
		t.Error("failed round fired OnAdvance")
	}

	src.broken = false
	if err := y.SyncOnce(); err != nil {
		t.Fatalf("repaired sync: %v", err)
	}
	if ptr, ok, _ := replica.Current(); !ok || ptr.ID != champ.ID {
		t.Fatalf("replica pointer %+v ok=%v, want champion %s", ptr, ok, champ.ID)
	}
}

// crashDuring runs fn with the given crash point armed and asserts the
// crash fired there, returning after recovery. This is the simulated
// power-cut: whatever fn's writes left on disk is what a restarted
// process would see.
func crashDuring(t *testing.T, point string, fn func() error) {
	t.Helper()
	t.Cleanup(faultinject.Reset)
	faultinject.ArmCrash(point)
	var crash *faultinject.CrashPanic
	func() {
		defer func() { crash = faultinject.Recover(recover()) }()
		_ = fn()
	}()
	faultinject.Reset()
	if crash == nil || crash.Point != point {
		t.Fatalf("crash = %v, want a crash at %s", crash, point)
	}
}

// TestSyncCrashSafety covers the replication crash matrix: a sync round
// killed mid-entry-fetch or mid-pointer-swap must never leave the
// replica exposing a partial entry or a pointer at an entry it does not
// hold, and a fresh round after restart must converge fully.
func TestSyncCrashSafety(t *testing.T) {
	points := []struct {
		name  string
		point string
	}{
		{"before entry fetch", "fleet/sync/fetch"},
		{"between bundle and manifest", "registry/import/manifest"},
		{"before pointer swap", "fleet/sync/pointer"},
		{"mid pointer mirror", "registry/setcurrent/mirror"},
	}
	for _, tc := range points {
		t.Run(tc.name, func(t *testing.T) {
			primary, champ := newPrimary(t)
			replica := newReplicaStore(t, "replica")
			y := &Syncer{Source: primary, Replica: replica, Logger: discardLogger()}

			crashDuring(t, tc.point, y.SyncOnce)

			// Invariant 1: no partial entry is visible. Every listed entry
			// must be fully committed (manifest present, bundle readable and
			// hash-complete).
			mans, err := replica.List()
			if err != nil {
				t.Fatalf("replica list after crash: %v", err)
			}
			for _, man := range mans {
				if got := readBundle(t, replica, man.ID); !bytes.Equal(got, readBundle(t, primary, man.ID)) {
					t.Errorf("entry %s visible but partial after crash at %s", man.ID, tc.point)
				}
			}
			// Invariant 2: no dangling pointer. If a pointer exists, its
			// entry must be fully present locally.
			if ptr, ok, _ := replica.Current(); ok {
				if _, err := replica.Get(ptr.ID); err != nil {
					t.Errorf("pointer at %s dangles after crash at %s: %v", ptr.ID, tc.point, err)
				}
			}

			// Restart: a fresh round converges to the primary.
			if err := y.SyncOnce(); err != nil {
				t.Fatalf("post-crash sync: %v", err)
			}
			ptr, ok, err := replica.Current()
			if err != nil || !ok || ptr.ID != champ.ID {
				t.Fatalf("post-crash pointer %+v ok=%v err=%v, want %s", ptr, ok, err, champ.ID)
			}
			if got := readBundle(t, replica, champ.ID); !bytes.Equal(got, readBundle(t, primary, champ.ID)) {
				t.Error("post-crash replica bundle differs from primary")
			}
		})
	}
}

// TestSyncerIsSourceCompatible: a replica store itself satisfies
// SyncSource, so replicas can chain (primary -> replica -> edge).
func TestSyncerIsSourceCompatible(t *testing.T) {
	primary, champ := newPrimary(t)
	mid := newReplicaStore(t, "mid")
	edge := newReplicaStore(t, "edge")
	if err := (&Syncer{Source: primary, Replica: mid, Logger: discardLogger()}).SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if err := (&Syncer{Source: mid, Replica: edge, Logger: discardLogger()}).SyncOnce(); err != nil {
		t.Fatal(err)
	}
	ptr, ok, err := edge.Current()
	if err != nil || !ok || ptr.ID != champ.ID {
		t.Fatalf("edge pointer %+v ok=%v err=%v, want %s via two hops", ptr, ok, err, champ.ID)
	}
	if ptr.Generation != 1 {
		t.Errorf("edge generation %d, want the primary's 1 mirrored verbatim", ptr.Generation)
	}
}
