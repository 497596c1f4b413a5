package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// spooledEnvelopes lists the session ids with an envelope in a spool
// directory, sorted, failing unless each file decodes as the envelope of
// the session its name gives.
func spooledEnvelopes(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var ex SessionExport
		if err := json.Unmarshal(blob, &ex); err != nil {
			t.Fatalf("%s is not a session envelope: %v", p, err)
		}
		id := strings.TrimSuffix(filepath.Base(p), ".ckpt")
		if ex.ID != id || len(ex.Checkpoint) == 0 {
			t.Fatalf("%s holds session %q with a %d-byte checkpoint", p, ex.ID, len(ex.Checkpoint))
		}
		ids = append(ids, id)
	}
	return ids
}

// evictNow forces the janitor's decision once, everything being idle
// from one hour in the future, and requires every session to leave. A
// batch's turn ends before its reply is written, so every session whose
// ingests have returned is evictable.
func evictNow(t *testing.T, s *Server) {
	t.Helper()
	s.evictIdle(time.Now().Add(time.Hour))
	s.sessMu.RLock()
	resident := len(s.sessions)
	s.sessMu.RUnlock()
	if resident != 0 {
		t.Fatalf("%d sessions resident after eviction, want 0", resident)
	}
}

func TestSpoolCheckpointRoundTrip(t *testing.T) {
	mon, logs := newTestModel(t)
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	drv := NewDriver(s)

	spec := SessionSpecOf(logs.Malicious, "")
	spec.ID = "sess-1"
	if _, err := drv.CreateSession(spec); err != nil {
		t.Fatal(err)
	}
	cut := mon.Window() + 3
	if _, err := drv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(logs.Malicious.Events[:cut])}); err != nil {
		t.Fatal(err)
	}
	evictNow(t, s)
	if ids, err := s.spooledIDs(); err != nil || !reflect.DeepEqual(ids, []string{"sess-1"}) {
		t.Fatalf("spooledIDs = %v (err %v), want [sess-1]", ids, err)
	}
	ex, err := s.readSpool("sess-1")
	if err != nil {
		t.Fatal(err)
	}
	if ex.Model != "default" || ex.Verdicts != 1 || !reflect.DeepEqual(ex.Spec, spec) {
		t.Fatalf("spooled envelope %+v, want model default, 1 verdict and the session's spec", ex)
	}

	s.sessMu.Lock()
	sess, err := s.restore("sess-1")
	s.sessMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if sess.det.Consumed() != cut || sess.det.Pending() != 3 {
		t.Fatalf("restored consumed=%d pending=%d, want %d/3", sess.det.Consumed(), sess.det.Pending(), cut)
	}
	if ids, err := s.spooledIDs(); err != nil || len(ids) != 0 {
		t.Fatalf("after restore: ids=%v err=%v, want the envelope consumed", ids, err)
	}
	// Removing an envelope that is not there reports so and is no error.
	if found, err := s.removeSpool("sess-1"); found || err != nil {
		t.Fatalf("removing a consumed envelope: found=%v err=%v, want false/nil", found, err)
	}
}

func TestSpoolOverwriteReplacesCheckpoint(t *testing.T) {
	mon, logs := newTestModel(t)
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	drv := NewDriver(s)

	spec := SessionSpecOf(logs.Malicious, "")
	spec.ID = "s"
	if _, err := drv.CreateSession(spec); err != nil {
		t.Fatal(err)
	}
	s.sessMu.RLock()
	sess := s.sessions["s"]
	s.sessMu.RUnlock()
	if err := s.spoolSession(sess); err != nil {
		t.Fatal(err)
	}
	n := mon.Window() + 1
	if _, err := drv.Ingest("s", EventBatch{Events: EventSpecsOf(logs.Malicious.Events[:n])}); err != nil {
		t.Fatal(err)
	}
	if err := s.spoolSession(sess); err != nil {
		t.Fatal(err)
	}

	ex, err := s.readSpool("s")
	if err != nil {
		t.Fatal(err)
	}
	restored, err := s.revive(ex)
	if err != nil {
		t.Fatal(err)
	}
	if restored.det.Consumed() != n || ex.Verdicts != 1 {
		t.Fatalf("restored consumed=%d verdicts=%d, want the second envelope's %d/1",
			restored.det.Consumed(), ex.Verdicts, n)
	}
	if tmp, _ := filepath.Glob(filepath.Join(spool, ".*")); len(tmp) != 0 {
		t.Errorf("temporary files left in the spool: %v", tmp)
	}
}

// TestSpoolRejectsHostileIDs: no id reaches the file system unless
// validSessionID accepts it, including an escaped slash in a request
// path, which reaches the handler unescaped.
func TestSpoolRejectsHostileIDs(t *testing.T) {
	root := t.TempDir()
	spool := filepath.Join(root, "spool")
	if err := os.Mkdir(spool, 0o755); err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "escape.ckpt")
	if err := os.WriteFile(outside, []byte("outside the spool"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, ".hidden.ckpt"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{SpoolDir: spool})

	for _, id := range []string{"", "../escape", "a/b", ".hidden", "nul\x00byte"} {
		if _, err := s.spoolPath(id); err == nil {
			t.Errorf("id %q accepted by spoolPath", id)
		}
		if err := s.spoolSession(&session{id: id}); err == nil {
			t.Errorf("id %q accepted by spoolSession", id)
		}
		if _, err := s.readSpool(id); err == nil {
			t.Errorf("id %q accepted by readSpool", id)
		}
		if _, err := s.removeSpool(id); err == nil {
			t.Errorf("id %q accepted by removeSpool", id)
		}
	}
	if ids, err := s.spooledIDs(); err != nil || len(ids) != 0 {
		t.Errorf("spooledIDs = %v (err %v), want the dot file skipped", ids, err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, method := range []string{http.MethodGet, http.MethodDelete, http.MethodPost} {
		target := ts.URL + "/v1/sessions/..%2Fescape"
		if method == http.MethodPost {
			target += "/export"
		}
		req, err := http.NewRequest(method, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", method, target, resp.StatusCode)
		}
	}
	if blob, err := os.ReadFile(outside); err != nil || string(blob) != "outside the spool" {
		t.Errorf("file outside the spool touched: %q err %v", blob, err)
	}
}

func TestSpooledSessionsMissingDir(t *testing.T) {
	s := newTestServer(t, Config{SpoolDir: filepath.Join(t.TempDir(), "never-created")})
	if ids, err := s.spooledIDs(); err != nil || ids != nil {
		t.Fatalf("missing dir: ids=%v err=%v, want nil/nil", ids, err)
	}
	if _, err := NewDriver(s).Session("absent"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("GET over a missing spool: err %v, want 404", err)
	}
}

// TestSpoolLeavesOldFormatOnDisk: the spool has no reader for the
// earlier two-file format (a gob checkpoint in <id>.ckpt beside a
// <id>.json sidecar). Such an entry is unrestorable, at boot and on
// access, and stays on disk untouched.
func TestSpoolLeavesOldFormatOnDisk(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	spool := t.TempDir()
	det, err := mon.Stream(mal.Modules)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range mal.Events[:3] {
		if _, err := det.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := det.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(map[string]any{"id": "old", "model": "default", "spec": SessionSpecOf(mal, "")})
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{"old.ckpt": ckpt.Bytes(), "old.json": meta}
	for name, blob := range files {
		if err := os.WriteFile(filepath.Join(spool, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := newTestServer(t, Config{SpoolDir: spool})
	if _, err := NewDriver(s).Session("old"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("GET of an old-format entry: err %v, want 404", err)
	}
	for name, want := range files {
		if got, err := os.ReadFile(filepath.Join(spool, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed or removed (err %v)", name, err)
		}
	}
}

// TestSpoolRestorePinsEntryAcrossPromotion: a registry session that
// leaves memory before a promotion and comes back after it rebinds the
// entry it was created with, through eviction and through a restart, so
// no window mixes the two models' cluster ids.
func TestSpoolRestorePinsEntryAcrossPromotion(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	events := mal.Events[:4*mon.Window()]
	want := referenceVerdicts(t, mon, mal, events) // champion-only reference
	cut := len(events)/2 + 1

	for _, restart := range []bool{false, true} {
		name := "eviction"
		if restart {
			name = "restart"
		}
		t.Run(name, func(t *testing.T) {
			st, manA, manB := registryFixture(t)
			cfg := Config{Registry: st, Preloaded: map[string]*core.Monitor{}, SpoolDir: t.TempDir()}
			s := newTestServer(t, cfg)
			drv := NewDriver(s)
			spec := SessionSpecOf(mal, "")
			spec.ID = "pinned-1"
			if _, err := drv.CreateSession(spec); err != nil {
				t.Fatal(err)
			}
			res, err := drv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(events[:cut])})
			if err != nil {
				t.Fatal(err)
			}
			got := append([]Verdict{}, res.Verdicts...)

			if restart {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if err := s.Shutdown(ctx); err != nil {
					t.Fatal(err)
				}
			} else {
				evictNow(t, s)
			}
			if _, err := st.Promote(manB.ID, "test"); err != nil {
				t.Fatal(err)
			}
			if restart {
				s = newTestServer(t, cfg)
				drv = NewDriver(s)
			} else if err := s.Reload(); err != nil {
				t.Fatal(err)
			}

			info, err := drv.Session(spec.ID)
			if err != nil {
				t.Fatal(err)
			}
			if info.Entry != manA.ID {
				t.Fatalf("restored session bound entry %q, want pinned %s (current is %s)", info.Entry, manA.ID, manB.ID)
			}
			res, err = drv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(events[cut:])})
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, res.Verdicts...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("restored session forked from its pinned model after promotion:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestDeleteUnknownSession: DELETE answers 404 for a session that is
// neither resident nor spooled, with or without a spool, and 204 once
// for a spooled one.
func TestDeleteUnknownSession(t *testing.T) {
	_, logs := newTestModel(t)
	for _, spool := range []string{"", t.TempDir()} {
		drv := NewDriver(newTestServer(t, Config{SpoolDir: spool}))
		if err := drv.DeleteSession("never-created"); !IsStatus(err, http.StatusNotFound) {
			t.Errorf("DELETE of an unknown session (spool %q): err %v, want 404", spool, err)
		}
	}

	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool})
	drv := NewDriver(s)
	spec := SessionSpecOf(logs.Malicious, "")
	spec.ID = "gone"
	if _, err := drv.CreateSession(spec); err != nil {
		t.Fatal(err)
	}
	evictNow(t, s)
	if err := drv.DeleteSession("gone"); err != nil {
		t.Fatalf("DELETE of a spooled session: %v", err)
	}
	if ids := spooledEnvelopes(t, spool); len(ids) != 0 {
		t.Errorf("envelope survived DELETE: %v", ids)
	}
	if err := drv.DeleteSession("gone"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("second DELETE: err %v, want 404", err)
	}
}

// TestLazyRestoreRespectsSessionCap: touching an evicted session while
// the cap is full answers 503 with Retry-After and keeps its envelope,
// the session restores once room frees, and exporting an evicted
// session hands its envelope over without needing room.
func TestLazyRestoreRespectsSessionCap(t *testing.T) {
	mon, logs := newTestModel(t)
	mal := logs.Malicious
	spool := t.TempDir()
	s := newTestServer(t, Config{SpoolDir: spool, MaxSessions: 1})
	drv := NewDriver(s)
	create := func(id string) {
		t.Helper()
		spec := SessionSpecOf(mal, "")
		spec.ID = id
		if _, err := drv.CreateSession(spec); err != nil {
			t.Fatalf("create %s: %v", id, err)
		}
	}

	create("a")
	cut := mon.Window() + 2
	if _, err := drv.Ingest("a", EventBatch{Events: EventSpecsOf(mal.Events[:cut])}); err != nil {
		t.Fatal(err)
	}
	evictNow(t, s)
	create("b")

	_, err := drv.Session("a")
	var de *DriverError
	if !errors.As(err, &de) || de.Status != http.StatusServiceUnavailable || de.RetryAfter == 0 {
		t.Fatalf("GET of an evicted session at the cap: err %v, want 503 with Retry-After", err)
	}
	_, err = drv.Ingest("a", EventBatch{Events: EventSpecsOf(mal.Events[cut : cut+1])})
	if !errors.As(err, &de) || de.Status != http.StatusServiceUnavailable || de.RetryAfter == 0 {
		t.Fatalf("ingest into an evicted session at the cap: err %v, want 503 with Retry-After", err)
	}
	if _, err := os.Stat(filepath.Join(spool, "a.ckpt")); err != nil {
		t.Fatalf("refused restore lost the envelope: %v", err)
	}
	s.sessMu.RLock()
	resident := len(s.sessions)
	s.sessMu.RUnlock()
	if resident != 1 {
		t.Fatalf("%d sessions resident, want the cap of 1", resident)
	}

	if err := drv.DeleteSession("b"); err != nil {
		t.Fatal(err)
	}
	info, err := drv.Session("a")
	if err != nil {
		t.Fatalf("restore once room freed: %v", err)
	}
	if info.Consumed != cut {
		t.Fatalf("restored consumed %d, want %d", info.Consumed, cut)
	}

	evictNow(t, s)
	create("c")
	ex, err := driverExport(drv, "a")
	if err != nil {
		t.Fatalf("export of an evicted session at the cap: %v", err)
	}
	if ex.ID != "a" || len(ex.Checkpoint) == 0 {
		t.Fatalf("exported envelope %+v", ex)
	}
	if ids := spooledEnvelopes(t, spool); len(ids) != 0 {
		t.Errorf("export left the envelope spooled: %v", ids)
	}
	if _, err := drv.Session("a"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("session after export: err %v, want 404", err)
	}
}

// FuzzReviveSession decodes arbitrary bytes as a spool file and revives
// them — the decoder behind both spool restore and import — on a
// statistical and a degraded server, each with one preloaded model.
// Either an error comes back, or the revived session's re-cut envelope
// round-trips the input: ID, Spec, Created, Verdicts and Malicious as
// given; Model as resolved (empty names the default); Entry empty,
// since a preloaded model has no registry to pin against; and the
// checkpoint state a fixed point, reviving the re-cut envelope and
// cutting again reproducing its checkpoint byte for byte.
func FuzzReviveSession(f *testing.F) {
	stat, logs := newTestModel(f)
	mal := logs.Malicious
	degraded, err := core.LoadMonitor(bytes.NewReader(degradedBundle(f, newTestBundle(f))))
	if err != nil {
		f.Fatal(err)
	}
	if !degraded.Degraded() {
		f.Fatal("a corrupt statistical section did not degrade the monitor")
	}
	var servers []*Server
	for _, mon := range []*core.Monitor{stat, degraded} {
		s := newTestServer(f, Config{
			Preloaded: map[string]*core.Monitor{"default": mon},
			SpoolDir:  f.TempDir(),
			Logger:    apQuietLogger(),
		})
		servers = append(servers, s)
		drv := NewDriver(s)
		for _, n := range []int{0, 3, 13} {
			// Without symbols a seed is ~2 KB instead of ~12 KB, which
			// keeps mutation and minimization cheap.
			spec := SessionSpecOf(mal, "")
			spec.ID = "fz"
			for i := range spec.Modules {
				spec.Modules[i].Symbols = nil
			}
			if _, err := drv.CreateSession(spec); err != nil {
				f.Fatal(err)
			}
			if n > 0 {
				if _, err := drv.Ingest("fz", EventBatch{Events: EventSpecsOf(mal.Events[:n])}); err != nil {
					f.Fatal(err)
				}
			}
			ex, err := driverExport(drv, "fz")
			if err != nil {
				f.Fatal(err)
			}
			blob, err := json.Marshal(ex)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range servers {
			if err := os.WriteFile(filepath.Join(s.cfg.SpoolDir, "fz"+spoolExt), data, 0o644); err != nil {
				t.Fatal(err)
			}
			ex, err := s.readSpool("fz")
			if err != nil {
				continue
			}
			sess, err := s.revive(ex)
			if err != nil {
				continue
			}
			cut, err := s.envelope(sess)
			if err != nil {
				t.Fatal(err)
			}
			want := ex
			if want.Model == "" {
				want.Model = "default"
			}
			want.Entry, want.Replica, want.Checkpoint = "", cut.Replica, cut.Checkpoint
			if !reflect.DeepEqual(cut, want) {
				t.Fatalf("re-cut envelope differs:\n got %+v\nwant %+v", cut, want)
			}
			again, err := s.revive(cut)
			if err != nil {
				t.Fatalf("re-cut envelope does not revive: %v", err)
			}
			recut, err := s.envelope(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(recut.Checkpoint, cut.Checkpoint) {
				t.Fatal("checkpoint state is not a fixed point of revive and cut")
			}
		}
	})
}
