package appsim

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// AttackMethod is how a malicious payload was placed into the victim
// process, following the paper's two dataset categories.
type AttackMethod int

// Attack methods.
const (
	// MethodNone means no payload: a clean process.
	MethodNone AttackMethod = iota + 1
	// MethodOfflineInfection embeds the payload in an appended section of
	// the benign binary and detours a benign code path to trigger it
	// (trojaned application).
	MethodOfflineInfection
	// MethodOnlineInjection allocates memory in the running benign process,
	// writes the payload there and starts it on a remote thread.
	MethodOnlineInjection
	// MethodStandalone runs the payload as its own independent executable;
	// the paper uses such recompiled payloads as pure-malicious ground
	// truth for testing.
	MethodStandalone
	// MethodSourceTrojan models the paper's §VI-A scenario: the adversary
	// adds the payload to the application's source and recompiles, so
	// every benign function shifts relative to the clean build while the
	// payload occupies an appended region of the new image.
	MethodSourceTrojan
)

var attackMethodNames = map[AttackMethod]string{
	MethodNone:             "none",
	MethodOfflineInfection: "offline-infection",
	MethodOnlineInjection:  "online-injection",
	MethodStandalone:       "standalone",
	MethodSourceTrojan:     "source-trojan",
}

// String returns the canonical method name.
func (m AttackMethod) String() string {
	if n, ok := attackMethodNames[m]; ok {
		return n
	}
	return fmt.Sprintf("AttackMethod(%d)", int(m))
}

// Address-space layout constants of the simulated victim process.
const (
	// appImageBase is where application images are mapped.
	appImageBase uint64 = 0x0040_0000
	// trojanSectionGap separates the benign code from the appended payload
	// section in an offline-infected binary: close enough to stay inside
	// one image, far enough that payload addresses never interleave with
	// benign functions.
	trojanSectionGap uint64 = 0x8000
	// injectionBase is where online injection allocates payload memory —
	// a private allocation far from every loaded module.
	injectionBase uint64 = 0x01_4000_0000
	// imageTailPad pads the declared image size past the last function.
	imageTailPad uint64 = 0x1000
	// sourceTrojanShift is how far a recompiled trojaned binary's benign
	// code moves relative to the clean build (new code, changed layout).
	sourceTrojanShift uint64 = 0x2800
)

// Threads used by the generator.
const (
	benignTID  = 1
	payloadTID = 9
)

// Process is a simulated victim (or clean, or pure-malware) process: the
// application program, an optional payload placed by an attack method, the
// module map describing its address space, and resolved addresses for
// every system-library function the behaviour templates reference.
type Process struct {
	app     *Program
	payload *Program
	method  AttackMethod
	modules *trace.ModuleMap
	sysAddr map[SysFrame]uint64
}

// NewProcess builds a simulated process.
//
//   - method == MethodNone: payload must be nil; a clean run of app.
//   - MethodOfflineInfection: payload laid out in an appended section of
//     the app image (addresses above the benign code, same module, no
//     symbols — like a packed trojan section).
//   - MethodOnlineInjection: payload laid out at a far private allocation
//     outside every module; its frames never resolve.
//   - MethodStandalone: app is ignored and must be the zero Profile or the
//     payload itself; prefer NewStandaloneProcess.
func NewProcess(app Profile, payload *Profile, method AttackMethod) (*Process, error) {
	templates := SysTemplates()
	switch method {
	case MethodNone:
		if payload != nil {
			return nil, errors.New("appsim: MethodNone cannot take a payload")
		}
	case MethodOfflineInfection, MethodOnlineInjection, MethodSourceTrojan:
		if payload == nil {
			return nil, fmt.Errorf("appsim: %v requires a payload", method)
		}
	case MethodStandalone:
		return nil, errors.New("appsim: use NewStandaloneProcess for standalone payloads")
	default:
		return nil, fmt.Errorf("appsim: unknown attack method %v", method)
	}

	appBase := uint64(appImageBase)
	if method == MethodSourceTrojan {
		appBase += sourceTrojanShift
	}
	appProg, err := BuildProgram(app, appBase, templates)
	if err != nil {
		return nil, fmt.Errorf("appsim: building app program: %w", err)
	}
	p := &Process{app: appProg, method: method}

	appImageSize := appProg.CodeSize() + imageTailPad
	if payload != nil {
		var payloadBase uint64
		switch method {
		case MethodOfflineInfection, MethodSourceTrojan:
			payloadBase = appProg.Limit() + trojanSectionGap
		case MethodOnlineInjection:
			payloadBase = injectionBase
		}
		p.payload, err = BuildProgram(*payload, payloadBase, templates)
		if err != nil {
			return nil, fmt.Errorf("appsim: building payload program: %w", err)
		}
		if method == MethodOfflineInfection || method == MethodSourceTrojan {
			// The appended section is part of the (trojaned) image.
			appImageSize = p.payload.Limit() + imageTailPad - appProg.Base()
		}
	}

	// The trojaned section carries no symbols: the app module exposes only
	// the benign symbol table, so payload frames resolve to synthetic
	// sub_ names, as a stripped packed section would.
	appModule, err := trace.NewModule(app.Name, trace.ModuleApp, appProg.Base(), appImageSize, appProg.Symbols())
	if err != nil {
		return nil, fmt.Errorf("appsim: building app module: %w", err)
	}
	sysMods, err := BuildSystemModules()
	if err != nil {
		return nil, fmt.Errorf("appsim: building system modules: %w", err)
	}
	p.modules, err = trace.NewModuleMap(app.Name, append([]*trace.Module{appModule}, sysMods...))
	if err != nil {
		return nil, fmt.Errorf("appsim: building module map: %w", err)
	}
	if err := p.indexSystemFunctions(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewStandaloneProcess builds a process running the payload as an
// independent executable (the paper's recompiled pure-malicious samples).
func NewStandaloneProcess(payload Profile) (*Process, error) {
	templates := SysTemplates()
	prog, err := BuildProgram(payload, appImageBase, templates)
	if err != nil {
		return nil, fmt.Errorf("appsim: building standalone payload: %w", err)
	}
	mod, err := trace.NewModule(payload.Name, trace.ModuleApp, prog.Base(), prog.CodeSize()+imageTailPad, prog.Symbols())
	if err != nil {
		return nil, fmt.Errorf("appsim: building payload module: %w", err)
	}
	sysMods, err := BuildSystemModules()
	if err != nil {
		return nil, fmt.Errorf("appsim: building system modules: %w", err)
	}
	p := &Process{app: prog, method: MethodStandalone}
	p.modules, err = trace.NewModuleMap(payload.Name, append([]*trace.Module{mod}, sysMods...))
	if err != nil {
		return nil, fmt.Errorf("appsim: building module map: %w", err)
	}
	if err := p.indexSystemFunctions(); err != nil {
		return nil, err
	}
	return p, nil
}

// indexSystemFunctions precomputes the address of every (module, function)
// pair appearing in the loaded system modules.
func (p *Process) indexSystemFunctions() error {
	p.sysAddr = make(map[SysFrame]uint64)
	for _, m := range p.modules.Modules() {
		if m.Kind == trace.ModuleApp {
			continue
		}
		for _, s := range m.Symbols() {
			p.sysAddr[SysFrame{Module: m.Name, Function: s.Name}] = s.Addr
		}
	}
	// Every template frame must be resolvable, otherwise generation would
	// produce unattributable system frames.
	for name, tpl := range SysTemplates() {
		for _, variant := range tpl.Variants {
			for _, fr := range variant {
				if _, ok := p.sysAddr[fr]; !ok {
					return fmt.Errorf("appsim: template %q references unknown system function %s!%s",
						name, fr.Module, fr.Function)
				}
			}
		}
	}
	return nil
}

// Modules returns the process's module map.
func (p *Process) Modules() *trace.ModuleMap { return p.modules }

// App returns the application program (for standalone processes, the
// payload program acting as the main image).
func (p *Process) App() *Program { return p.app }

// BenignRange returns the address range [lo, hi) occupied by benign
// application functions. Useful to assert the separation invariant.
func (p *Process) BenignRange() (lo, hi uint64) {
	return p.app.Base() + codeStart, p.app.Limit()
}

// PayloadRange returns the address range occupied by payload functions and
// true, or zeros and false for clean processes.
func (p *Process) PayloadRange() (lo, hi uint64, ok bool) {
	if p.payload == nil {
		return 0, 0, false
	}
	return p.payload.Base() + codeStart, p.payload.Limit(), true
}
