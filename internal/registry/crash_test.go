package registry

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// TestPublishCrashBetweenBundleAndManifest kills the publisher at the
// fault point between the bundle write and the manifest write — the
// manifest-last commit protocol's window — and asserts the store treats
// the orphaned entry directory as if the publish never happened: Get and
// List ignore it, the pointer is untouched, and a re-publish of the same
// bytes lands cleanly over the debris.
func TestPublishCrashBetweenBundleAndManifest(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	raw, _ := testBundle(t)
	st := openStore(t)

	faultinject.ArmCrash("registry/publish/manifest")
	var crash *faultinject.CrashPanic
	func() {
		defer func() { crash = faultinject.Recover(recover()) }()
		_, _ = st.Publish(bytes.NewReader(raw), TrainInfo{App: "vim.exe"})
		t.Error("Publish returned past an armed crash point")
	}()
	if crash == nil || crash.Point != "registry/publish/manifest" {
		t.Fatalf("recovered crash %+v, want registry/publish/manifest", crash)
	}

	// The bundle landed but the manifest did not: exactly one orphaned
	// entry directory with a bundle and no manifest.
	ents, err := os.ReadDir(filepath.Join(st.Root(), entriesDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("crash left %d entry dirs, want 1 orphan", len(ents))
	}
	orphan := ents[0].Name()
	if _, err := os.Stat(filepath.Join(st.Root(), entriesDir, orphan, bundleFile)); err != nil {
		t.Fatalf("orphan lost its bundle: %v", err)
	}
	if _, err := os.Stat(filepath.Join(st.Root(), entriesDir, orphan, manifestFile)); !os.IsNotExist(err) {
		t.Fatalf("orphan has a manifest (err %v): the crash point fired too late", err)
	}

	// The uncommitted entry is invisible to every read path.
	if _, err := st.Get(orphan); err == nil {
		t.Error("Get returned the uncommitted entry")
	}
	if list, err := st.List(); err != nil || len(list) != 0 {
		t.Errorf("List = %d entries, err %v, want the orphan ignored", len(list), err)
	}
	if _, ok, err := st.Current(); err != nil || ok {
		t.Errorf("crashed first publish set the current pointer (ok=%v err=%v)", ok, err)
	}

	// Recovery is a plain re-publish: same bytes, same content address,
	// committed this time.
	man, err := st.Publish(bytes.NewReader(raw), TrainInfo{App: "vim.exe"})
	if err != nil {
		t.Fatalf("re-publish after crash: %v", err)
	}
	if man.ID != orphan {
		t.Errorf("re-publish landed at %s, want the orphan's address %s", man.ID, orphan)
	}
	list, err := st.List()
	if err != nil || len(list) != 1 || list[0].ID != man.ID {
		t.Fatalf("List after recovery = %v err %v, want exactly %s", list, err, man.ID)
	}
	ptr, ok, err := st.Current()
	if err != nil || !ok || ptr.ID != man.ID {
		t.Errorf("recovered first publish did not become current: %+v ok=%v err=%v", ptr, ok, err)
	}
}

// TestPublishDiskFullBeforeBundle injects a write error at the bundle
// fault point and asserts Publish surfaces it and the store stays
// publishable once the disk "recovers".
func TestPublishDiskFullBeforeBundle(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	raw, _ := testBundle(t)
	st := openStore(t)

	boom := errors.New("no space left on device")
	faultinject.ArmError("registry/publish/bundle", boom, 1)
	if _, err := st.Publish(bytes.NewReader(raw), TrainInfo{}); !errors.Is(err, boom) {
		t.Fatalf("Publish error = %v, want injected %v", err, boom)
	}
	if list, _ := st.List(); len(list) != 0 {
		t.Fatalf("failed publish committed %d entries", len(list))
	}
	if _, err := st.Publish(bytes.NewReader(raw), TrainInfo{}); err != nil {
		t.Fatalf("publish after transient disk error: %v", err)
	}
}

// TestSetCurrentInjectedFailureLeavesPointer verifies a failed repoint
// leaves the previous pointer intact — the serving process keeps its
// champion when promotion's pointer write dies.
func TestSetCurrentInjectedFailureLeavesPointer(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	raw, _ := testBundle(t)
	st := openStore(t)
	man, err := st.Publish(bytes.NewReader(raw), TrainInfo{})
	if err != nil {
		t.Fatal(err)
	}
	second := otherBundle(t)
	man2, err := st.Publish(bytes.NewReader(second), TrainInfo{})
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("eio")
	faultinject.ArmError("registry/setcurrent", boom, 1)
	if _, err := st.SetCurrent(man2.ID, "promoted"); !errors.Is(err, boom) {
		t.Fatalf("SetCurrent error = %v, want injected %v", err, boom)
	}
	ptr, ok, err := st.Current()
	if err != nil || !ok || ptr.ID != man.ID {
		t.Fatalf("failed repoint moved the pointer: %+v ok=%v err=%v, want %s", ptr, ok, err, man.ID)
	}
	hist, err := st.History()
	if err != nil || len(hist) != 1 {
		t.Fatalf("failed repoint appended history: %d records, err %v", len(hist), err)
	}
}
