package appsim

import (
	"testing"

	"repro/internal/trace"
)

func TestSysTemplatesResolvable(t *testing.T) {
	mods, err := BuildSystemModules()
	if err != nil {
		t.Fatalf("BuildSystemModules: %v", err)
	}
	byName := make(map[string]*trace.Module, len(mods))
	for _, m := range mods {
		byName[m.Name] = m
	}
	for name, tpl := range SysTemplates() {
		if !tpl.Type.Valid() {
			t.Errorf("template %q has invalid event type", name)
		}
		if len(tpl.Variants) == 0 {
			t.Errorf("template %q has no variants", name)
		}
		for vi, variant := range tpl.Variants {
			if len(variant) == 0 {
				t.Errorf("template %q variant %d is empty", name, vi)
			}
			for _, fr := range variant {
				m := byName[fr.Module]
				if m == nil {
					t.Errorf("template %q references unknown module %q", name, fr.Module)
					continue
				}
				found := false
				for _, s := range m.Symbols() {
					if s.Name == fr.Function {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("template %q references unknown function %s!%s", name, fr.Module, fr.Function)
				}
			}
		}
	}
}

func TestBuildSystemModulesDisjoint(t *testing.T) {
	mods, err := BuildSystemModules()
	if err != nil {
		t.Fatalf("BuildSystemModules: %v", err)
	}
	if len(mods) < 10 {
		t.Fatalf("expected a rich module catalog, got %d modules", len(mods))
	}
	// NewModuleMap enforces disjointness; adding a synthetic app module
	// proves the whole catalog coexists in one address space.
	app, err := trace.NewModule("app.exe", trace.ModuleApp, appImageBase, 0x1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.NewModuleMap("app.exe", append([]*trace.Module{app}, mods...)); err != nil {
		t.Fatalf("system modules overlap: %v", err)
	}
}

func TestProfileValidate(t *testing.T) {
	templates := SysTemplates()
	valid := Profile{Name: "x.exe", Ops: []OpSpec{
		{Name: "op", Weight: 1, Depth: 1, Steps: []StepSpec{step("file_read", 1, 2)}},
	}}
	tests := []struct {
		name    string
		mutate  func(*Profile)
		wantErr bool
	}{
		{"valid", func(p *Profile) {}, false},
		{"empty name", func(p *Profile) { p.Name = "" }, true},
		{"no ops", func(p *Profile) { p.Ops = nil }, true},
		{"unnamed op", func(p *Profile) { p.Ops[0].Name = "" }, true},
		{"zero weight", func(p *Profile) { p.Ops[0].Weight = 0 }, true},
		{"negative depth", func(p *Profile) { p.Ops[0].Depth = -1 }, true},
		{"no steps", func(p *Profile) { p.Ops[0].Steps = nil }, true},
		{"unknown template", func(p *Profile) { p.Ops[0].Steps[0].Template = "nope" }, true},
		{"zero min repeat", func(p *Profile) { p.Ops[0].Steps[0].MinRepeat = 0 }, true},
		{"max below min", func(p *Profile) { p.Ops[0].Steps[0].MaxRepeat = 0 }, true},
		{
			"duplicate op",
			func(p *Profile) { p.Ops = append(p.Ops, p.Ops[0]) },
			true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Profile{Name: valid.Name, Ops: []OpSpec{
				{Name: "op", Weight: 1, Depth: 1, Steps: []StepSpec{step("file_read", 1, 2)}},
			}}
			tt.mutate(&p)
			err := p.Validate(templates)
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBuiltinProfilesValid(t *testing.T) {
	templates := SysTemplates()
	for name, p := range AppProfiles() {
		if err := p.Validate(templates); err != nil {
			t.Errorf("app profile %q invalid: %v", name, err)
		}
	}
	for name, p := range PayloadProfiles() {
		if err := p.Validate(templates); err != nil {
			t.Errorf("payload profile %q invalid: %v", name, err)
		}
	}
}

func TestProfileLookup(t *testing.T) {
	if _, err := AppProfile("vim"); err != nil {
		t.Errorf("AppProfile(vim): %v", err)
	}
	if _, err := AppProfile("emacs"); err == nil {
		t.Error("AppProfile(emacs) did not fail")
	}
	if _, err := PayloadProfile("reverse_tcp"); err != nil {
		t.Errorf("PayloadProfile(reverse_tcp): %v", err)
	}
	if _, err := PayloadProfile("ransomware"); err == nil {
		t.Error("PayloadProfile(ransomware) did not fail")
	}
}

func TestBuildProgramLayout(t *testing.T) {
	prog, err := BuildProgram(VimProfile(), appImageBase, SysTemplates())
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	if prog.profile.Name != "vim.exe" {
		t.Errorf("program image = %q", prog.profile.Name)
	}
	syms := prog.Symbols()
	if len(syms) < 10 {
		t.Fatalf("expected many functions, got %d", len(syms))
	}
	if syms[0].Name != "main" || syms[0].Addr != appImageBase+codeStart {
		t.Errorf("first symbol = %+v, want main at 0x%x", syms[0], appImageBase+codeStart)
	}
	for i := 1; i < len(syms); i++ {
		if syms[i].Addr != syms[i-1].Addr+funcSpacing {
			t.Errorf("symbol %d at 0x%x, want contiguous spacing from 0x%x", i, syms[i].Addr, syms[i-1].Addr)
		}
	}
	if prog.Limit() != syms[len(syms)-1].Addr+funcSpacing {
		t.Errorf("Limit() = 0x%x, want 0x%x", prog.Limit(), syms[len(syms)-1].Addr+funcSpacing)
	}
	// Every op chain starts at main and is strictly inside the image.
	for _, op := range prog.ops {
		if op.chain[0] != syms[0].Addr {
			t.Errorf("op %q chain does not start at main", op.name)
		}
		if len(op.chain) < 2 {
			t.Errorf("op %q chain too short: %d", op.name, len(op.chain))
		}
		lo, hi := prog.Base(), prog.Limit()
		for _, a := range op.chain {
			if a < lo || a >= hi {
				t.Errorf("op %q chain addr 0x%x outside [0x%x, 0x%x)", op.name, a, lo, hi)
			}
		}
		minE, maxE := op.events()
		if minE < 1 || maxE < minE {
			t.Errorf("op %q event bounds (%d, %d) invalid", op.name, minE, maxE)
		}
	}
}

func TestNewProcessValidation(t *testing.T) {
	payload := ReverseTCPProfile()
	tests := []struct {
		name    string
		payload *Profile
		method  AttackMethod
		wantErr bool
	}{
		{"clean", nil, MethodNone, false},
		{"clean with payload", &payload, MethodNone, true},
		{"offline", &payload, MethodOfflineInfection, false},
		{"offline missing payload", nil, MethodOfflineInfection, true},
		{"online", &payload, MethodOnlineInjection, false},
		{"standalone via NewProcess", &payload, MethodStandalone, true},
		{"bad method", &payload, AttackMethod(99), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewProcess(VimProfile(), tt.payload, tt.method)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewProcess err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestOfflineInfectionLayout(t *testing.T) {
	payload := ReverseTCPProfile()
	p, err := NewProcess(VimProfile(), &payload, MethodOfflineInfection)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	bLo, bHi := p.BenignRange()
	pLo, pHi, ok := p.PayloadRange()
	if !ok {
		t.Fatal("PayloadRange reported no payload")
	}
	if pLo < bHi {
		t.Errorf("payload range [0x%x,0x%x) overlaps benign range [0x%x,0x%x)", pLo, pHi, bLo, bHi)
	}
	// Offline payload stays inside the trojaned image.
	app := p.Modules().AppModule()
	if !app.Contains(pLo) || !app.Contains(pHi-1) {
		t.Errorf("offline payload [0x%x,0x%x) not inside app image [0x%x,0x%x)", pLo, pHi, app.Base, app.End())
	}
	// Payload frames resolve to the app module with synthetic names.
	fr := p.Modules().Resolve(trace.Frame{Addr: pLo})
	if fr.Module != "vim.exe" {
		t.Errorf("payload frame resolved to %q, want vim.exe", fr.Module)
	}
}

func TestOnlineInjectionLayout(t *testing.T) {
	payload := ReverseHTTPSProfile()
	p, err := NewProcess(PuttyProfile(), &payload, MethodOnlineInjection)
	if err != nil {
		t.Fatalf("NewProcess: %v", err)
	}
	pLo, pHi, ok := p.PayloadRange()
	if !ok {
		t.Fatal("PayloadRange reported no payload")
	}
	// Injected code lives outside every module: frames stay unresolved.
	for _, addr := range []uint64{pLo, (pLo + pHi) / 2} {
		if m := p.Modules().Locate(addr); m != nil {
			t.Errorf("injected addr 0x%x resolved to module %q, want none", addr, m.Name)
		}
	}
}

func TestStandaloneProcess(t *testing.T) {
	p, err := NewStandaloneProcess(ReverseTCPProfile())
	if err != nil {
		t.Fatalf("NewStandaloneProcess: %v", err)
	}
	if p.Modules().AppName() != "reverse_tcp" {
		t.Errorf("AppName() = %q", p.Modules().AppName())
	}
	if _, _, ok := p.PayloadRange(); ok {
		t.Error("standalone process reports a separate payload range")
	}
	log, err := p.GenerateLog(GenConfig{Seed: 1, Events: 200, PID: 7})
	if err != nil {
		t.Fatalf("GenerateLog: %v", err)
	}
	if log.Len() < 200 {
		t.Errorf("log has %d events, want >= 200", log.Len())
	}
}

func TestGenerateLogDeterministic(t *testing.T) {
	payload := ReverseTCPProfile()
	p, err := NewProcess(WinSCPProfile(), &payload, MethodOfflineInfection)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{Seed: 42, Events: 500, PayloadFraction: 0.4, PID: 3}
	a, err := p.GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.GenerateLog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Type != eb.Type || ea.TID != eb.TID || len(ea.Stack) != len(eb.Stack) {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
		for j := range ea.Stack {
			if ea.Stack[j] != eb.Stack[j] {
				t.Fatalf("event %d frame %d differs", i, j)
			}
		}
	}
	// Different seeds should diverge.
	c, err := p.GenerateLog(GenConfig{Seed: 43, Events: 500, PayloadFraction: 0.4, PID: 3})
	if err != nil {
		t.Fatal(err)
	}
	same := a.Len() == c.Len()
	if same {
		for i := range a.Events {
			if a.Events[i].Type != c.Events[i].Type {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestGenerateLogValidation(t *testing.T) {
	clean, err := NewProcess(VimProfile(), nil, MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.GenerateLog(GenConfig{Seed: 1, Events: 0}); err == nil {
		t.Error("Events=0 accepted")
	}
	if _, err := clean.GenerateLog(GenConfig{Seed: 1, Events: 10, PayloadFraction: 0.5}); err == nil {
		t.Error("PayloadFraction on clean process accepted")
	}
	if _, err := clean.GenerateLog(GenConfig{Seed: 1, Events: 10, PayloadFraction: -1}); err == nil {
		t.Error("negative PayloadFraction accepted")
	}
	if _, err := clean.GenerateLog(GenConfig{Seed: 1, Events: 10, ExcludeOps: []string{"nope"}}); err == nil {
		t.Error("unknown ExcludeOps accepted")
	}
	all := VimProfile()
	names := make([]string, len(all.Ops))
	for i, op := range all.Ops {
		names[i] = op.Name
	}
	if _, err := clean.GenerateLog(GenConfig{Seed: 1, Events: 10, ExcludeOps: names}); err == nil {
		t.Error("excluding every op accepted")
	}
}

func TestGenerateLogExcludeOps(t *testing.T) {
	clean, err := NewProcess(VimProfile(), nil, MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	log, err := clean.GenerateLog(GenConfig{Seed: 7, Events: 800, ExcludeOps: []string{"open_buffer"}})
	if err != nil {
		t.Fatal(err)
	}
	// The excluded op's dispatch function must never appear in any stack.
	var dispatch uint64
	for _, s := range clean.App().Symbols() {
		if s.Name == "dispatch_open_buffer" {
			dispatch = s.Addr
		}
	}
	if dispatch == 0 {
		t.Fatal("dispatch_open_buffer symbol not found")
	}
	for _, e := range log.Events {
		for _, f := range e.Stack {
			if f.Addr == dispatch {
				t.Fatalf("excluded op appeared in event %d", e.Seq)
			}
		}
	}
}

func TestGenerateLogMixedComposition(t *testing.T) {
	payload := ReverseTCPProfile()
	p, err := NewProcess(WinSCPProfile(), &payload, MethodOnlineInjection)
	if err != nil {
		t.Fatal(err)
	}
	log, err := p.GenerateLog(GenConfig{Seed: 11, Events: 4000, PayloadFraction: 0.4, PID: 5})
	if err != nil {
		t.Fatal(err)
	}
	var payloadEvents, benignEvents int
	for _, e := range log.Events {
		switch e.TID {
		case payloadTID:
			payloadEvents++
		case benignTID:
			benignEvents++
		default:
			t.Fatalf("event %d on unexpected thread %d", e.Seq, e.TID)
		}
	}
	// The op-level payload share is 0.4, but payload operations emit
	// fewer events per instance than the host's transfer operations, so
	// the event-level share sits below it.
	frac := float64(payloadEvents) / float64(payloadEvents+benignEvents)
	if frac < 0.18 || frac > 0.55 {
		t.Errorf("payload event fraction = %.2f, want in [0.18, 0.55]", frac)
	}
	// Timestamps must be strictly increasing.
	for i := 1; i < log.Len(); i++ {
		if !log.Events[i].Time.After(log.Events[i-1].Time) {
			t.Fatalf("timestamps not increasing at event %d", i)
		}
	}
	// Every payload-thread event's application-side frames are unresolved
	// (online injection) while benign-thread stacks resolve to the app.
	pLo, pHi, _ := p.PayloadRange()
	for _, e := range log.Events {
		top := e.Stack[0]
		if e.TID == payloadTID {
			if top.Addr < pLo || top.Addr >= pHi {
				t.Fatalf("payload event %d rooted at 0x%x outside payload range", e.Seq, top.Addr)
			}
		} else if top.Module != "winscp.exe" {
			t.Fatalf("benign event %d rooted in %q", e.Seq, top.Module)
		}
	}
}

func TestAttackMethodString(t *testing.T) {
	tests := []struct {
		m    AttackMethod
		want string
	}{
		{MethodNone, "none"},
		{MethodOfflineInfection, "offline-infection"},
		{MethodOnlineInjection, "online-injection"},
		{MethodStandalone, "standalone"},
		{AttackMethod(42), "AttackMethod(42)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.m), got, tt.want)
		}
	}
}
