package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestSessionSpecClientID covers client-requested session identifiers:
// placement-by-ID is what lets a fleet router consistent-hash a session
// before it exists.
// driverExport detaches a session and returns its handoff envelope
// (POST /v1/sessions/{id}/export).
func driverExport(d *Driver, id string) (SessionExport, error) {
	var ex SessionExport
	err := d.do(http.MethodPost, "/v1/sessions/"+id+"/export", nil, &ex)
	return ex, err
}

// driverImport restores a session from a handoff envelope
// (POST /v1/sessions/import).
func driverImport(d *Driver, ex SessionExport) (SessionInfo, error) {
	var info SessionInfo
	err := d.do(http.MethodPost, "/v1/sessions/import", ex, &info)
	return info, err
}

// driverDrain marks the replica draining (POST /v1/drain).
func driverDrain(d *Driver) (DrainStatus, error) {
	var st DrainStatus
	err := d.do(http.MethodPost, "/v1/drain", nil, &st)
	return st, err
}

// driverUndrain clears the draining flag (DELETE /v1/drain).
func driverUndrain(d *Driver) (DrainStatus, error) {
	var st DrainStatus
	err := d.do(http.MethodDelete, "/v1/drain", nil, &st)
	return st, err
}

func TestSessionSpecClientID(t *testing.T) {
	_, logs := newTestModel(t)
	s := newTestServer(t, Config{})
	drv := NewDriver(s)

	spec := SessionSpecOf(logs.Malicious, "")
	spec.ID = "s00042"
	info, err := drv.CreateSession(spec)
	if err != nil {
		t.Fatalf("create with id: %v", err)
	}
	if info.ID != "s00042" {
		t.Fatalf("created session id %q, want the requested s00042", info.ID)
	}

	if _, err := drv.CreateSession(spec); !IsStatus(err, http.StatusConflict) {
		t.Errorf("duplicate id create: err %v, want 409", err)
	}

	for _, bad := range []string{"-leading", "a/b", "has space", string(make([]byte, 65))} {
		spec.ID = bad
		if _, err := drv.CreateSession(spec); !IsStatus(err, http.StatusBadRequest) {
			t.Errorf("create with id %q: err %v, want 400", bad, err)
		}
	}
}

// TestExportImportContinuity is the core handoff guarantee: a session
// scored partly on one replica, exported, imported into another replica
// and scored to completion produces the byte-identical verdict stream of
// a session that never moved.
func TestExportImportContinuity(t *testing.T) {
	mon, logs := newTestModel(t)
	loser := newTestServer(t, Config{ReplicaID: "r0"})
	gainer := newTestServer(t, Config{ReplicaID: "r1"})
	ldrv, gdrv := NewDriver(loser), NewDriver(gainer)

	mal := logs.Malicious
	events := mal.Events[:4*mon.Window()]
	want := referenceVerdicts(t, mon, mal, events)
	cut := len(events)/2 + 3 // mid-window, so partial state must travel

	spec := SessionSpecOf(mal, "")
	spec.ID = "handoff-1"
	if _, err := ldrv.CreateSession(spec); err != nil {
		t.Fatal(err)
	}
	got := []Verdict{}
	res, err := ldrv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(events[:cut])})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, res.Verdicts...)

	ex, err := driverExport(ldrv, spec.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if ex.ID != spec.ID || ex.Replica != "r0" || len(ex.Checkpoint) == 0 {
		t.Fatalf("export envelope %+v: wrong identity or empty checkpoint", ex)
	}
	// The session is gone from the loser.
	if _, err := ldrv.Session(spec.ID); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("session still on loser after export: err %v, want 404", err)
	}
	if _, err := driverExport(ldrv, spec.ID); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("double export: err %v, want 404", err)
	}

	// Builds before the JSON checkpoint carried a gob checkpoint as a
	// base64 string; the format break refuses such an envelope.
	old := ex
	old.Checkpoint = json.RawMessage(`"P/+BAwEBDmNoZWNrcG9pbnRGaWxl"`)
	if _, err := driverImport(gdrv, old); !IsStatus(err, http.StatusBadRequest) {
		t.Errorf("import of an envelope with a base64 checkpoint: err %v, want 400", err)
	}

	info, err := driverImport(gdrv, ex)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if info.ID != spec.ID || info.Replica != "r1" || info.Verdicts != len(got) {
		t.Fatalf("imported info %+v, want id %s on r1 with %d verdicts", info, spec.ID, len(got))
	}
	// Importing the same envelope twice conflicts.
	if _, err := driverImport(gdrv, ex); !IsStatus(err, http.StatusConflict) {
		t.Errorf("duplicate import: err %v, want 409", err)
	}

	res, err = gdrv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(events[cut:])})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, res.Verdicts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("verdicts across handoff differ from the unmoved reference:\n got %d verdicts %+v\nwant %d verdicts %+v",
			len(got), got, len(want), want)
	}
}

// TestDrainLifecycle: a draining replica fails readiness and refuses new
// sessions and imports, but keeps scoring resident sessions; undrain
// restores service.
func TestDrainLifecycle(t *testing.T) {
	mon, logs := newTestModel(t)
	s := newTestServer(t, Config{ReplicaID: "r0"})
	drv := NewDriver(s)

	spec := SessionSpecOf(logs.Malicious, "")
	spec.ID = "resident-1"
	if _, err := drv.CreateSession(spec); err != nil {
		t.Fatal(err)
	}

	st, err := driverDrain(drv)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !st.Draining || !reflect.DeepEqual(st.Sessions, []string{"resident-1"}) {
		t.Fatalf("drain status %+v, want draining with [resident-1]", st)
	}

	if err := drv.do(http.MethodGet, "/readyz", nil, nil); !IsStatus(err, http.StatusServiceUnavailable) {
		t.Errorf("readyz while draining: err %v, want 503", err)
	}
	spec2 := SessionSpecOf(logs.Malicious, "")
	if _, err := drv.CreateSession(spec2); !IsStatus(err, http.StatusServiceUnavailable) {
		t.Errorf("create while draining: err %v, want 503", err)
	}
	if _, err := driverImport(drv, SessionExport{ID: "x1", Spec: spec2}); !IsStatus(err, http.StatusConflict) {
		t.Errorf("import while draining: err %v, want 409", err)
	}
	// Resident sessions keep scoring.
	if _, err := drv.Ingest("resident-1", EventBatch{
		Events: EventSpecsOf(logs.Malicious.Events[:mon.Window()]),
	}); err != nil {
		t.Errorf("ingest while draining: %v", err)
	}

	if st, err = driverUndrain(drv); err != nil || st.Draining {
		t.Fatalf("undrain: status %+v err %v", st, err)
	}
	if err := drv.do(http.MethodGet, "/readyz", nil, nil); err != nil {
		t.Errorf("readyz after undrain: %v", err)
	}
}

// TestImportPinsEntryAcrossPromotion is the handoff × promotion
// interaction: a session created against the old champion and handed off
// after a promotion must rebind the old champion's entry on the gaining
// replica — not the new current — so its verdict stream never forks.
func TestImportPinsEntryAcrossPromotion(t *testing.T) {
	mon, logs := newTestModel(t)
	st, manA, manB := registryFixture(t)
	loser := newTestServer(t, Config{
		Registry: st, Preloaded: map[string]*core.Monitor{}, ReplicaID: "r0",
	})
	gainer := newTestServer(t, Config{
		Registry: st, Preloaded: map[string]*core.Monitor{}, ReplicaID: "r1",
	})
	ldrv, gdrv := NewDriver(loser), NewDriver(gainer)

	mal := logs.Malicious
	events := mal.Events[:4*mon.Window()]
	want := referenceVerdicts(t, mon, mal, events) // champion-only reference
	cut := len(events)/2 + 1

	spec := SessionSpecOf(mal, "")
	spec.ID = "pinned-1"
	info, err := ldrv.CreateSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Entry != manA.ID {
		t.Fatalf("session entry %q, want champion %s", info.Entry, manA.ID)
	}
	got := []Verdict{}
	res, err := ldrv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(events[:cut])})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, res.Verdicts...)

	// Promote the challenger fleet-wide; both replicas hot-reload.
	if _, err := st.Promote(manB.ID, "test"); err != nil {
		t.Fatal(err)
	}
	if err := loser.Reload(); err != nil {
		t.Fatal(err)
	}
	if err := gainer.Reload(); err != nil {
		t.Fatal(err)
	}

	ex, err := driverExport(ldrv, spec.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if ex.Entry != manA.ID {
		t.Fatalf("export pins entry %q, want the session's champion %s", ex.Entry, manA.ID)
	}
	ginfo, err := driverImport(gdrv, ex)
	if err != nil {
		t.Fatalf("import after promotion: %v", err)
	}
	if ginfo.Entry != manA.ID {
		t.Fatalf("imported session bound entry %q, want pinned champion %s (current is %s)",
			ginfo.Entry, manA.ID, manB.ID)
	}

	res, err = gdrv.Ingest(spec.ID, EventBatch{Events: EventSpecsOf(events[cut:])})
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, res.Verdicts...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("handed-off session forked from its pinned model after promotion: got %d verdicts, want %d",
			len(got), len(want))
	}

	// A fresh session on the gainer scores with the new champion.
	fresh := SessionSpecOf(mal, "")
	finfo, err := gdrv.CreateSession(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if finfo.Entry != manB.ID {
		t.Errorf("post-promotion session entry %q, want new champion %s", finfo.Entry, manB.ID)
	}
}

// TestImportUnknownEntryConflicts: importing a session pinned to an
// entry the replica's registry does not hold (sync lag) is refused with
// 409, not silently rebound.
func TestImportUnknownEntryConflicts(t *testing.T) {
	_, logs := newTestModel(t)
	st, _, _ := registryFixture(t)
	s := newTestServer(t, Config{
		Registry: st, Preloaded: map[string]*core.Monitor{},
	})
	drv := NewDriver(s)

	spec := SessionSpecOf(logs.Malicious, "")
	ex := SessionExport{ID: "lagged-1", Model: "default", Spec: spec, Entry: "ffffffffffff"}
	if _, err := driverImport(drv, ex); !IsStatus(err, http.StatusConflict) {
		t.Errorf("import with unknown pinned entry: err %v, want 409", err)
	}
}
