package appsim

import (
	"errors"
	"fmt"

	"repro/internal/trace"
)

// StepSpec is one system interaction inside an operation: the named
// behaviour template, executed between MinRepeat and MaxRepeat times per
// operation instance (each repetition emits one event).
type StepSpec struct {
	Template  string
	MinRepeat int
	MaxRepeat int
	// PinVariant, when non-zero, fixes the template variant this step
	// uses to Variants[PinVariant-1] instead of sampling uniformly:
	// different code paths reach the same system service through
	// different library routes (msvcrt stdio vs. raw Win32, wininet vs.
	// winhttp), and that per-call-site stability is what gives some
	// operations distinctive system-level call-graph edges.
	PinVariant int
}

// OpSpec describes one operation of an application or payload: a named unit
// of work with its own application-side call chain and a sequence of system
// interactions performed at the bottom of that chain.
type OpSpec struct {
	Name string
	// Weight is the relative probability of selecting this operation when
	// generating a log.
	Weight float64
	// Depth is the number of private call-chain functions between the
	// dispatch function and the step leaves.
	Depth int
	Steps []StepSpec
}

// Profile describes a program to simulate: an application binary
// (WinSCP-like, Vim-like, ...) or a malicious payload. Only the
// statistical structure matters: how many operations, how deep their call
// chains, and which system behaviours they exercise at what rates.
type Profile struct {
	// Name is the image name, e.g. "winscp.exe".
	Name string
	// Ops is the operation mix.
	Ops []OpSpec
}

// Validate checks the profile for structural errors against the template
// catalog.
func (p *Profile) Validate(templates map[string]*SysTemplate) error {
	if p.Name == "" {
		return errors.New("appsim: profile name must not be empty")
	}
	if len(p.Ops) == 0 {
		return fmt.Errorf("appsim: profile %q has no operations", p.Name)
	}
	seen := make(map[string]bool, len(p.Ops))
	for _, op := range p.Ops {
		if op.Name == "" {
			return fmt.Errorf("appsim: profile %q has an unnamed operation", p.Name)
		}
		if seen[op.Name] {
			return fmt.Errorf("appsim: profile %q has duplicate operation %q", p.Name, op.Name)
		}
		seen[op.Name] = true
		if op.Weight <= 0 {
			return fmt.Errorf("appsim: operation %q weight must be positive, got %v", op.Name, op.Weight)
		}
		if op.Depth < 0 {
			return fmt.Errorf("appsim: operation %q depth must be non-negative", op.Name)
		}
		if len(op.Steps) == 0 {
			return fmt.Errorf("appsim: operation %q has no steps", op.Name)
		}
		for _, st := range op.Steps {
			tpl, ok := templates[st.Template]
			if !ok {
				return fmt.Errorf("appsim: operation %q references unknown template %q", op.Name, st.Template)
			}
			if st.MinRepeat < 1 || st.MaxRepeat < st.MinRepeat {
				return fmt.Errorf("appsim: operation %q step %q has invalid repeat range [%d,%d]",
					op.Name, st.Template, st.MinRepeat, st.MaxRepeat)
			}
			if st.PinVariant < 0 || st.PinVariant > len(tpl.Variants) {
				return fmt.Errorf("appsim: operation %q step %q pins variant %d of %d",
					op.Name, st.Template, st.PinVariant, len(tpl.Variants))
			}
		}
	}
	return nil
}

// builtStep is a StepSpec bound to its template and the address of the
// application-side leaf function that performs it.
type builtStep struct {
	spec     StepSpec
	template *SysTemplate
	leaf     uint64
}

// builtOp is an operation with concrete function addresses: the call chain
// from the program root down to the operation body, plus one leaf per step.
type builtOp struct {
	name   string
	weight float64
	chain  []uint64 // root → dispatch → private chain
	steps  []builtStep
}

// events returns how many events one instance of the op emits at minimum
// and maximum.
func (op *builtOp) events() (min, max int) {
	for _, st := range op.steps {
		min += st.spec.MinRepeat
		max += st.spec.MaxRepeat
	}
	return min, max
}

// funcSpacing is the address distance between consecutive simulated
// functions; codeStart is the offset of the first function within an image.
const (
	funcSpacing uint64 = 0x80
	codeStart   uint64 = 0x1000
)

// Program is a built profile: the operation set with concrete function
// addresses laid out from base, plus the symbol table for those functions.
type Program struct {
	profile Profile
	base    uint64
	limit   uint64 // first address past the last function
	symbols []trace.Symbol
	ops     []*builtOp
	totalW  float64
}

// BuildProgram lays out the profile's functions starting at base and binds
// every step to its behaviour template.
//
// The layout mirrors a compiled binary: a root ("main") and a per-operation
// dispatch function, then each operation's private chain and step leaves in
// declaration order, all at funcSpacing intervals. Operations declared
// adjacently therefore occupy adjacent address ranges, which is what makes
// the paper's density-array weight estimate meaningful for benign
// functionality missing from an incomplete benign CFG.
func BuildProgram(p Profile, base uint64, templates map[string]*SysTemplate) (*Program, error) {
	if err := p.Validate(templates); err != nil {
		return nil, err
	}
	prog := &Program{profile: p, base: base}
	next := base + codeStart
	alloc := func(name string) uint64 {
		addr := next
		next += funcSpacing
		prog.symbols = append(prog.symbols, trace.Symbol{Name: name, Addr: addr})
		return addr
	}

	rootAddr := alloc("main")
	for _, opSpec := range p.Ops {
		op := &builtOp{name: opSpec.Name, weight: opSpec.Weight}
		op.chain = append(op.chain, rootAddr)
		op.chain = append(op.chain, alloc("dispatch_"+opSpec.Name))
		for d := 0; d < opSpec.Depth; d++ {
			op.chain = append(op.chain, alloc(fmt.Sprintf("%s_f%d", opSpec.Name, d+1)))
		}
		for _, stSpec := range opSpec.Steps {
			st := builtStep{
				spec:     stSpec,
				template: templates[stSpec.Template],
				leaf:     alloc(fmt.Sprintf("%s_do_%s", opSpec.Name, stSpec.Template)),
			}
			op.steps = append(op.steps, st)
		}
		prog.ops = append(prog.ops, op)
		prog.totalW += opSpec.Weight
	}
	prog.limit = next
	return prog, nil
}

// Base returns the address of the start of the program's layout region.
func (prog *Program) Base() uint64 { return prog.base }

// Limit returns the first address past the program's last function.
func (prog *Program) Limit() uint64 { return prog.limit }

// CodeSize returns the size of the laid-out code region.
func (prog *Program) CodeSize() uint64 { return prog.limit - prog.base }

// Symbols returns a copy of the program's symbol table.
func (prog *Program) Symbols() []trace.Symbol {
	out := make([]trace.Symbol, len(prog.symbols))
	copy(out, prog.symbols)
	return out
}

// op returns the named operation or nil.
func (prog *Program) op(name string) *builtOp {
	for _, op := range prog.ops {
		if op.name == name {
			return op
		}
	}
	return nil
}
