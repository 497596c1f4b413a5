package appsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/trace"
)

// GenConfig controls log generation for one process.
type GenConfig struct {
	// Seed drives all randomness; the same seed yields the same log.
	Seed int64
	// Events is the approximate number of events to emit. Generation stops
	// at the first operation boundary at or after this count.
	Events int
	// PayloadFraction is the probability of drawing the next operation
	// from the payload instead of the application (mixed logs only).
	PayloadFraction float64
	// ExcludeOps lists application operations to withhold from this log.
	// Excluding operations from the benign training log reproduces the
	// paper's "incomplete benign CFG": functionality that appears in the
	// mixed log but was never observed clean.
	ExcludeOps []string
	// MaxBurst is the maximum number of consecutive operations drawn from
	// the same source (payload or application) before the generator may
	// switch: backdoors beacon and exfiltrate in bursts rather than
	// alternating single operations with their host. Zero defaults to 4;
	// 1 disables bursting.
	MaxBurst int
	// PID identifies the process in the emitted log.
	PID int
	// Start is the timestamp of the first event; the zero value picks a
	// fixed epoch so logs stay deterministic.
	Start time.Time
}

// genEpoch is the fixed default start time for generated logs.
var genEpoch = time.Date(2015, time.June, 22, 9, 0, 0, 0, time.UTC)

// GenerateLog simulates execution of the process and returns the resulting
// stack-event correlated log.
//
// Benign operations run on the main thread; payload operations run on a
// separate backdoor thread, interleaved into the same event stream the way
// a stack-walking system logger would record them. For attacked processes
// the log opens with the attack preamble (the detour trigger for offline
// infection; memory allocation, payload write and remote thread creation
// for online injection).
func (p *Process) GenerateLog(cfg GenConfig) (*trace.Log, error) {
	if cfg.Events <= 0 {
		return nil, errors.New("appsim: GenConfig.Events must be positive")
	}
	gen, err := p.newGenerator(cfg)
	if err != nil {
		return nil, err
	}
	g := gen.g
	for g.log.Len() < cfg.Events {
		fromPayload := p.payload != nil && g.rng.Float64() < gen.fraction
		burst := 1 + g.rng.Intn(gen.maxBurst)
		for b := 0; b < burst && g.log.Len() < cfg.Events; b++ {
			if fromPayload {
				g.emitOp(pickOp(g.rng, p.payload.ops, p.payload.totalW), payloadTID)
			} else {
				g.emitOp(pickOp(g.rng, gen.appOps, gen.appW), benignTID)
			}
		}
	}
	return g.log, nil
}

// newGenerator validates cfg, Events aside, and sets up one generation
// run: the application operations left after ExcludeOps, a logGen seeded
// from cfg.Seed with the log header and start time, the attack preamble
// for an infected process, and the burst bound. GenerateLog and Generator
// both start here and differ only in how they consume the run.
func (p *Process) newGenerator(cfg GenConfig) (*Generator, error) {
	if cfg.PayloadFraction < 0 || cfg.PayloadFraction > 1 {
		return nil, fmt.Errorf("appsim: PayloadFraction %v out of [0,1]", cfg.PayloadFraction)
	}
	if p.payload == nil && cfg.PayloadFraction > 0 {
		return nil, errors.New("appsim: PayloadFraction set on a process without a payload")
	}
	appOps, appW, err := p.appOpsFor(cfg)
	if err != nil {
		return nil, err
	}
	maxBurst := cfg.MaxBurst
	if maxBurst == 0 {
		maxBurst = 4
	}
	if maxBurst < 1 {
		return nil, fmt.Errorf("appsim: MaxBurst %d must be positive", cfg.MaxBurst)
	}
	gen := &Generator{
		proc: p,
		g: &logGen{
			proc: p,
			rng:  rand.New(rand.NewSource(cfg.Seed)),
			log: &trace.Log{
				App:     p.modules.AppName(),
				PID:     cfg.PID,
				Modules: p.modules,
			},
			now: cfg.Start,
		},
		appOps:   appOps,
		appW:     appW,
		fraction: cfg.PayloadFraction,
		maxBurst: maxBurst,
	}
	if gen.g.now.IsZero() {
		gen.g.now = genEpoch
	}
	if p.payload != nil {
		gen.g.emitPreamble()
	}
	return gen, nil
}

// appOpsFor resolves the application operation set a generation run
// samples from after applying cfg.ExcludeOps, with its total weight.
func (p *Process) appOpsFor(cfg GenConfig) ([]*builtOp, float64, error) {
	excluded := make(map[string]bool, len(cfg.ExcludeOps))
	for _, name := range cfg.ExcludeOps {
		if p.app.op(name) == nil {
			return nil, 0, fmt.Errorf("appsim: ExcludeOps references unknown operation %q", name)
		}
		excluded[name] = true
	}
	appOps := make([]*builtOp, 0, len(p.app.ops))
	var appW float64
	for _, op := range p.app.ops {
		if !excluded[op.name] {
			appOps = append(appOps, op)
			appW += op.weight
		}
	}
	if len(appOps) == 0 {
		return nil, 0, errors.New("appsim: all application operations excluded")
	}
	return appOps, appW, nil
}

// logGen carries the mutable state of one generation run.
type logGen struct {
	proc *Process
	rng  *rand.Rand
	log  *trace.Log
	now  time.Time
}

// pickOp selects an operation by weight.
func pickOp(rng *rand.Rand, ops []*builtOp, totalW float64) *builtOp {
	x := rng.Float64() * totalW
	for _, op := range ops {
		x -= op.weight
		if x < 0 {
			return op
		}
	}
	return ops[len(ops)-1]
}

// emitPreamble emits the attack-establishment events at the head of a
// mixed log.
func (g *logGen) emitPreamble() {
	payloadRoot := g.proc.payload.ops[0].chain[0]
	switch g.proc.method {
	case MethodOfflineInfection:
		// The trojaned binary detours a benign code path into the payload
		// entry, which registers the backdoor thread and returns: the
		// trigger stack runs from benign main through the hook site into
		// payload code — the one edge connecting the two CFG regions.
		hook := g.proc.app.ops[0]
		appPath := append(append([]uint64{}, hook.chain...), payloadRoot)
		g.emitEvent("thread_create", appPath, payloadTID)
	case MethodOnlineInjection:
		// Remote exploitation: allocate payload memory, then a thread
		// appears whose stack is rooted in the private allocation.
		g.emitEvent("mem_alloc", []uint64{payloadRoot}, payloadTID)
		g.emitEvent("thread_create", []uint64{payloadRoot}, payloadTID)
	}
}

// emitOp emits all events of one operation instance.
func (g *logGen) emitOp(op *builtOp, tid int) {
	for _, st := range op.steps {
		reps := st.spec.MinRepeat
		if span := st.spec.MaxRepeat - st.spec.MinRepeat; span > 0 {
			reps += g.rng.Intn(span + 1)
		}
		appPath := append(append([]uint64{}, op.chain...), st.leaf)
		for r := 0; r < reps; r++ {
			g.emitTemplate(st.template, st.spec.PinVariant, appPath, tid)
		}
	}
}

// emitTemplate emits one event for the given template with the given
// application-side call path. pin selects a fixed variant (1-based) or, at
// zero, a uniformly random one.
func (g *logGen) emitTemplate(tpl *SysTemplate, pin int, appPath []uint64, tid int) {
	variant := tpl.Variants[g.rng.Intn(len(tpl.Variants))]
	if pin > 0 {
		variant = tpl.Variants[pin-1]
	}
	stack := make(trace.StackWalk, 0, len(appPath)+len(variant))
	for _, addr := range appPath {
		stack = append(stack, trace.Frame{Addr: addr})
	}
	for _, fr := range variant {
		stack = append(stack, trace.Frame{Addr: g.proc.sysAddr[fr]})
	}
	g.proc.modules.ResolveStack(stack)
	g.now = g.now.Add(time.Duration(50+g.rng.Intn(1950)) * time.Microsecond)
	g.log.Events = append(g.log.Events, trace.Event{
		Seq:   g.log.Len(),
		Type:  tpl.Type,
		Time:  g.now,
		PID:   g.log.PID,
		TID:   tid,
		Stack: stack,
	})
}

// emitEvent emits one event for a named template (preamble helper).
func (g *logGen) emitEvent(templateName string, appPath []uint64, tid int) {
	tpl := SysTemplates()[templateName]
	g.emitTemplate(tpl, 0, appPath, tid)
}
