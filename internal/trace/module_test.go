package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustModule(t *testing.T, name string, kind ModuleKind, base, size uint64, syms []Symbol) *Module {
	t.Helper()
	m, err := NewModule(name, kind, base, size, syms)
	if err != nil {
		t.Fatalf("NewModule(%q): %v", name, err)
	}
	return m
}

func testModuleMap(t *testing.T) *ModuleMap {
	t.Helper()
	app := mustModule(t, "vim.exe", ModuleApp, 0x400000, 0x10000, []Symbol{
		{Name: "main", Addr: 0x400100},
		{Name: "edit_loop", Addr: 0x401000},
		{Name: "write_file", Addr: 0x402000},
	})
	lib := mustModule(t, "kernel32.dll", ModuleSharedLib, 0x7ff00000, 0x20000, []Symbol{
		{Name: "CreateFileW", Addr: 0x7ff00400},
		{Name: "WriteFile", Addr: 0x7ff01000},
	})
	krnl := mustModule(t, "ntoskrnl.exe", ModuleKernel, 0xfffff80000000000, 0x100000, []Symbol{
		{Name: "NtWriteFile", Addr: 0xfffff80000001000},
	})
	mm, err := NewModuleMap("vim.exe", []*Module{app, lib, krnl})
	if err != nil {
		t.Fatalf("NewModuleMap: %v", err)
	}
	return mm
}

func TestNewModuleValidation(t *testing.T) {
	tests := []struct {
		name    string
		mkName  string
		base    uint64
		size    uint64
		syms    []Symbol
		wantErr bool
	}{
		{"valid", "a.dll", 0x1000, 0x100, []Symbol{{Name: "f", Addr: 0x1010}}, false},
		{"empty name", "", 0x1000, 0x100, nil, true},
		{"zero size", "a.dll", 0x1000, 0, nil, true},
		{"symbol below base", "a.dll", 0x1000, 0x100, []Symbol{{Name: "f", Addr: 0xfff}}, true},
		{"symbol past end", "a.dll", 0x1000, 0x100, []Symbol{{Name: "f", Addr: 0x1100}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewModule(tt.mkName, ModuleSharedLib, tt.base, tt.size, tt.syms)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewModule err = %v, wantErr = %v", err, tt.wantErr)
			}
		})
	}
}

func TestModuleFuncAt(t *testing.T) {
	m := mustModule(t, "x.exe", ModuleApp, 0x1000, 0x1000, []Symbol{
		{Name: "a", Addr: 0x1100},
		{Name: "b", Addr: 0x1200},
	})
	tests := []struct {
		addr   uint64
		want   string
		wantOK bool
	}{
		{0x1100, "a", true},
		{0x11ff, "a", true},
		{0x1200, "b", true},
		{0x1fff, "b", true},
		{0x1050, "", false}, // before first symbol
		{0x2000, "", false}, // outside module
	}
	for _, tt := range tests {
		got, ok := m.FuncAt(tt.addr)
		if got != tt.want || ok != tt.wantOK {
			t.Errorf("FuncAt(0x%x) = (%q, %v), want (%q, %v)", tt.addr, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestModuleMapRejectsOverlap(t *testing.T) {
	a := mustModule(t, "a.exe", ModuleApp, 0x1000, 0x1000, nil)
	b := mustModule(t, "b.dll", ModuleSharedLib, 0x1800, 0x1000, nil)
	if _, err := NewModuleMap("a.exe", []*Module{a, b}); err == nil {
		t.Error("NewModuleMap accepted overlapping modules")
	}
}

func TestModuleMapRejectsDuplicateName(t *testing.T) {
	a := mustModule(t, "a.exe", ModuleApp, 0x1000, 0x100, nil)
	b := mustModule(t, "a.exe", ModuleSharedLib, 0x3000, 0x100, nil)
	if _, err := NewModuleMap("a.exe", []*Module{a, b}); err == nil {
		t.Error("NewModuleMap accepted duplicate module names")
	}
}

func TestModuleMapRequiresAppModule(t *testing.T) {
	b := mustModule(t, "b.dll", ModuleSharedLib, 0x3000, 0x100, nil)
	if _, err := NewModuleMap("a.exe", []*Module{b}); err == nil {
		t.Error("NewModuleMap accepted a map without the app module")
	}
}

func TestModuleMapLocate(t *testing.T) {
	mm := testModuleMap(t)
	tests := []struct {
		addr uint64
		want string // module name, "" for none
	}{
		{0x400100, "vim.exe"},
		{0x40ffff, "vim.exe"},
		{0x410000, ""},
		{0x7ff00400, "kernel32.dll"},
		{0xfffff80000001234, "ntoskrnl.exe"},
		{0x10, ""},
	}
	for _, tt := range tests {
		m := mm.Locate(tt.addr)
		got := ""
		if m != nil {
			got = m.Name
		}
		if got != tt.want {
			t.Errorf("Locate(0x%x) = %q, want %q", tt.addr, got, tt.want)
		}
	}
}

func TestModuleMapResolve(t *testing.T) {
	mm := testModuleMap(t)
	f := mm.Resolve(Frame{Addr: 0x401234})
	if f.Module != "vim.exe" || f.Function != "edit_loop" {
		t.Errorf("Resolve(0x401234) = %v, want vim.exe!edit_loop", f)
	}
	// Address inside the app image but before the first symbol gets a
	// synthetic sub_ name.
	f = mm.Resolve(Frame{Addr: 0x400010})
	if f.Module != "vim.exe" || !strings.HasPrefix(f.Function, "sub_") {
		t.Errorf("Resolve(0x400010) = %v, want vim.exe!sub_*", f)
	}
	// Unmapped address clears stale resolution.
	f = mm.Resolve(Frame{Addr: 0xdeadbeef, Module: "stale", Function: "stale"})
	if f.Resolved() {
		t.Errorf("Resolve(unmapped) = %v, want unresolved", f)
	}
}

func TestModuleMapResolveStack(t *testing.T) {
	mm := testModuleMap(t)
	s := StackWalk{{Addr: 0x400100}, {Addr: 0x7ff01008}, {Addr: 0xfffff80000001000}}
	mm.ResolveStack(s)
	wantMods := []string{"vim.exe", "kernel32.dll", "ntoskrnl.exe"}
	for i, w := range wantMods {
		if s[i].Module != w {
			t.Errorf("frame %d module = %q, want %q", i, s[i].Module, w)
		}
	}
}

func TestModuleMapIsAppFrame(t *testing.T) {
	mm := testModuleMap(t)
	if m := mm.Locate(0x400100); m == nil || m.Kind != ModuleApp {
		t.Errorf("app address located in %v, want the application image", m)
	}
	if m := mm.Locate(0x7ff00400); m == nil || m.Kind == ModuleApp {
		t.Errorf("library address located in %v, want a library", m)
	}
	if m := mm.Locate(0xdeadbeef); m != nil {
		t.Errorf("unmapped address located in %v", m)
	}
}

func TestModuleMapAccessors(t *testing.T) {
	mm := testModuleMap(t)
	if mm.AppName() != "vim.exe" {
		t.Errorf("AppName() = %q", mm.AppName())
	}
	if mm.AppModule() == nil || mm.AppModule().Name != "vim.exe" {
		t.Error("AppModule() did not return the app image")
	}
	if mm.byName["kernel32.dll"] == nil {
		t.Error("kernel32.dll not indexed by name")
	}
	if mm.byName["nope.dll"] != nil {
		t.Error("nope.dll indexed by name")
	}
	if got := len(mm.Modules()); got != 3 {
		t.Errorf("len(Modules()) = %d, want 3", got)
	}
	if s := mm.String(); !strings.Contains(s, "vim.exe") || !strings.Contains(s, "kernel32.dll") {
		t.Errorf("String() missing module names: %s", s)
	}
}

// Property: Locate agrees with a linear scan for arbitrary addresses.
func TestModuleMapLocatePropertyQuick(t *testing.T) {
	mm := testModuleMap(t)
	mods := mm.Modules()
	linear := func(addr uint64) *Module {
		for _, m := range mods {
			if m.Contains(addr) {
				return m
			}
		}
		return nil
	}
	f := func(addr uint64) bool {
		return mm.Locate(addr) == linear(addr)
	}
	cfg := &quick.Config{
		MaxCount: 2000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			// Bias half the probes into and around module ranges so the
			// test exercises boundaries, not just the empty space.
			var a uint64
			if r.Intn(2) == 0 {
				m := mods[r.Intn(len(mods))]
				a = m.Base + uint64(r.Int63n(int64(m.Size)+16)) - 8
			} else {
				a = r.Uint64()
			}
			vals[0] = reflect.ValueOf(a)
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestModuleSymbolsCopy(t *testing.T) {
	m := mustModule(t, "x.exe", ModuleApp, 0x1000, 0x1000, []Symbol{{Name: "a", Addr: 0x1100}})
	syms := m.Symbols()
	syms[0].Name = "mutated"
	if got, _ := m.FuncAt(0x1100); got != "a" {
		t.Error("Symbols() exposed internal slice")
	}
}
