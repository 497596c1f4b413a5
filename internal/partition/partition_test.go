package partition

import (
	"testing"

	"repro/internal/appsim"
	"repro/internal/trace"
)

func TestSplitValidation(t *testing.T) {
	if _, err := Split(nil); err == nil {
		t.Error("Split(nil) succeeded")
	}
	if _, err := Split(&trace.Log{App: "x"}); err == nil {
		t.Error("Split(log without modules) succeeded")
	}
}

func TestSplitCleanProcess(t *testing.T) {
	p, err := appsim.NewProcess(appsim.VimProfile(), nil, appsim.MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	log, err := p.GenerateLog(appsim.GenConfig{Seed: 1, Events: 300, PID: 4})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Split(log)
	if err != nil {
		t.Fatal(err)
	}
	if part.Len() != log.Len() {
		t.Fatalf("partitioned %d events, want %d", part.Len(), log.Len())
	}
	if part.App != "vim.exe" || part.PID != 4 {
		t.Errorf("identity = (%q,%d)", part.App, part.PID)
	}
	for i, pe := range part.Events {
		if pe.Seq != log.Events[i].Seq || pe.Type != log.Events[i].Type {
			t.Fatalf("event %d identity mismatch", i)
		}
		if len(pe.AppTrace) == 0 {
			t.Fatalf("event %d has empty app trace", i)
		}
		if len(pe.SysTrace) == 0 {
			t.Fatalf("event %d has empty system trace", i)
		}
		// App frames precede system frames, and the partition preserves
		// the total frame count.
		if got, want := len(pe.AppTrace)+len(pe.SysTrace), len(log.Events[i].Stack); got != want {
			t.Fatalf("event %d frame count = %d, want %d", i, got, want)
		}
		for _, fr := range pe.AppTrace {
			if fr.Module != "vim.exe" {
				t.Fatalf("event %d app frame in %q", i, fr.Module)
			}
		}
		for _, fr := range pe.SysTrace {
			if fr.Module == "vim.exe" || fr.Module == "" {
				t.Fatalf("event %d system frame = %v", i, fr)
			}
		}
	}
}

func TestSplitInjectedFramesAreApplication(t *testing.T) {
	payload := appsim.ReverseHTTPSProfile()
	p, err := appsim.NewProcess(appsim.PuttyProfile(), &payload, appsim.MethodOnlineInjection)
	if err != nil {
		t.Fatal(err)
	}
	log, err := p.GenerateLog(appsim.GenConfig{Seed: 2, Events: 500, PayloadFraction: 0.5, PID: 9})
	if err != nil {
		t.Fatal(err)
	}
	part, err := Split(log)
	if err != nil {
		t.Fatal(err)
	}
	var sawInjected bool
	for _, pe := range part.Events {
		for _, fr := range pe.AppTrace {
			if !fr.Resolved() {
				sawInjected = true
			}
		}
		for _, fr := range pe.SysTrace {
			if !fr.Resolved() {
				t.Fatalf("unresolved frame %v classified as system", fr)
			}
		}
	}
	if !sawInjected {
		t.Error("no unresolved (injected) frames found in app traces")
	}
}

func TestSplitKeepsStacklessEvents(t *testing.T) {
	mm := testModuleMap(t)
	log := &trace.Log{
		App:     "vim.exe",
		Modules: mm,
		Events: []trace.Event{
			{Seq: 0, Type: trace.EventImageLoad}, // no stack
			{Seq: 1, Type: trace.EventFileRead, Stack: trace.StackWalk{{Addr: 0x400100}}},
		},
	}
	log.Modules.ResolveStack(log.Events[1].Stack)
	part, err := Split(log)
	if err != nil {
		t.Fatal(err)
	}
	if part.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", part.Len())
	}
	if len(part.Events[0].AppTrace) != 0 || len(part.Events[0].SysTrace) != 0 {
		t.Error("stackless event gained frames")
	}
	if len(part.Events[1].AppTrace) != 1 {
		t.Error("app frame not partitioned to app trace")
	}
}

func testModuleMap(t *testing.T) *trace.ModuleMap {
	t.Helper()
	app, err := trace.NewModule("vim.exe", trace.ModuleApp, 0x400000, 0x10000, []trace.Symbol{
		{Name: "main", Addr: 0x400100},
	})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := trace.NewModuleMap("vim.exe", []*trace.Module{app})
	if err != nil {
		t.Fatal(err)
	}
	return mm
}
