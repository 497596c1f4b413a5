package trace

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// ModuleKind classifies a loaded module for stack partitioning: frames in
// the application's own image form the application stack trace; frames in
// shared libraries and the kernel form the system stack trace.
type ModuleKind int

// Module kinds.
const (
	ModuleApp ModuleKind = iota + 1
	ModuleSharedLib
	ModuleKernel
)

var moduleKindNames = map[ModuleKind]string{
	ModuleApp:       "app",
	ModuleSharedLib: "sharedlib",
	ModuleKernel:    "kernel",
}

// String returns the canonical kind name.
func (k ModuleKind) String() string {
	if n, ok := moduleKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("ModuleKind(%d)", int(k))
}

// Symbol is a named function within a module, located at an absolute
// address. Symbols partition the module's address range: a frame address
// resolves to the symbol with the greatest Addr not exceeding it.
type Symbol struct {
	Name string
	Addr uint64
}

// Module is a loaded image: the application binary, a shared library, or a
// kernel component. Its symbols are kept sorted by address.
type Module struct {
	Name    string
	Kind    ModuleKind
	Base    uint64
	Size    uint64
	symbols []Symbol
}

// NewModule constructs a module covering [base, base+size) with the given
// symbols. Symbols outside the range are rejected.
func NewModule(name string, kind ModuleKind, base, size uint64, symbols []Symbol) (*Module, error) {
	if name == "" {
		return nil, errors.New("trace: module name must not be empty")
	}
	if size == 0 {
		return nil, fmt.Errorf("trace: module %q has zero size", name)
	}
	m := &Module{Name: name, Kind: kind, Base: base, Size: size}
	m.symbols = make([]Symbol, len(symbols))
	copy(m.symbols, symbols)
	sort.Slice(m.symbols, func(i, j int) bool { return m.symbols[i].Addr < m.symbols[j].Addr })
	for _, s := range m.symbols {
		if s.Addr < base || s.Addr >= base+size {
			return nil, fmt.Errorf("trace: symbol %s@0x%x outside module %q [0x%x,0x%x)",
				s.Name, s.Addr, name, base, base+size)
		}
	}
	return m, nil
}

// End returns the first address past the module.
func (m *Module) End() uint64 { return m.Base + m.Size }

// Contains reports whether addr falls inside the module's range.
func (m *Module) Contains(addr uint64) bool { return addr >= m.Base && addr < m.End() }

// Symbols returns a copy of the module's symbols in address order.
func (m *Module) Symbols() []Symbol {
	out := make([]Symbol, len(m.symbols))
	copy(out, m.symbols)
	return out
}

// FuncAt resolves addr to the enclosing function name. The second return is
// false when addr precedes the first symbol or lies outside the module.
func (m *Module) FuncAt(addr uint64) (string, bool) {
	if !m.Contains(addr) || len(m.symbols) == 0 {
		return "", false
	}
	// First symbol with Addr > addr, then step back one.
	i := sort.Search(len(m.symbols), func(i int) bool { return m.symbols[i].Addr > addr })
	if i == 0 {
		return "", false
	}
	return m.symbols[i-1].Name, true
}

// ModuleMap indexes the modules loaded in a process for address resolution
// and stack partitioning. It is immutable once built.
type ModuleMap struct {
	appName string
	modules []*Module // sorted by base address
	byName  map[string]*Module
}

// NewModuleMap builds a map over the given modules. Exactly the modules
// with Kind == ModuleApp and name == appName constitute the application
// image. Overlapping modules are rejected.
func NewModuleMap(appName string, modules []*Module) (*ModuleMap, error) {
	if appName == "" {
		return nil, errors.New("trace: application name must not be empty")
	}
	mm := &ModuleMap{
		appName: appName,
		modules: make([]*Module, len(modules)),
		byName:  make(map[string]*Module, len(modules)),
	}
	copy(mm.modules, modules)
	sort.Slice(mm.modules, func(i, j int) bool { return mm.modules[i].Base < mm.modules[j].Base })
	for i, m := range mm.modules {
		if i > 0 && m.Base < mm.modules[i-1].End() {
			return nil, fmt.Errorf("trace: modules %q and %q overlap",
				mm.modules[i-1].Name, m.Name)
		}
		if _, dup := mm.byName[m.Name]; dup {
			return nil, fmt.Errorf("trace: duplicate module name %q", m.Name)
		}
		mm.byName[m.Name] = m
	}
	if _, ok := mm.byName[appName]; !ok {
		return nil, fmt.Errorf("trace: application module %q not in module list", appName)
	}
	return mm, nil
}

// AppName returns the name of the application's main image.
func (mm *ModuleMap) AppName() string { return mm.appName }

// AppModule returns the application's main image module.
func (mm *ModuleMap) AppModule() *Module { return mm.byName[mm.appName] }

// Modules returns the modules in base-address order. The returned slice is
// a copy; the modules themselves are shared and must not be mutated.
func (mm *ModuleMap) Modules() []*Module {
	out := make([]*Module, len(mm.modules))
	copy(out, mm.modules)
	return out
}

// Locate returns the module containing addr, or nil when the address falls
// outside every loaded module (e.g. injected code in private allocations).
func (mm *ModuleMap) Locate(addr uint64) *Module {
	i := sort.Search(len(mm.modules), func(i int) bool { return mm.modules[i].End() > addr })
	if i == len(mm.modules) || !mm.modules[i].Contains(addr) {
		return nil
	}
	return mm.modules[i]
}

// Resolve fills in the Module and Function fields of a frame from its
// address. Unresolvable frames are returned unchanged apart from clearing
// any stale resolution.
func (mm *ModuleMap) Resolve(f Frame) Frame {
	f.Module, f.Function = "", ""
	m := mm.Locate(f.Addr)
	if m == nil {
		return f
	}
	f.Module = m.Name
	if fn, ok := m.FuncAt(f.Addr); ok {
		f.Function = fn
	} else {
		f.Function = fmt.Sprintf("sub_%x", f.Addr-m.Base)
	}
	return f
}

// ResolveStack resolves every frame of a stack walk in place and returns it.
func (mm *ModuleMap) ResolveStack(s StackWalk) StackWalk {
	for i := range s {
		s[i] = mm.Resolve(s[i])
	}
	return s
}

// String summarises the map for diagnostics.
func (mm *ModuleMap) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ModuleMap(app=%s)", mm.appName)
	for _, m := range mm.modules {
		fmt.Fprintf(&b, "\n  %-24s %-9s [0x%x, 0x%x) %d syms",
			m.Name, m.Kind, m.Base, m.End(), len(m.symbols))
	}
	return b.String()
}
