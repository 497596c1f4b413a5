package appsim

import (
	"errors"

	"repro/internal/trace"
)

// Generator emits a simulated process's event stream incrementally — the
// session-template hook behind the cluster load simulator. Where
// GenerateLog materialises one bounded log, a Generator is open-ended:
// Next hands out the next n events of an endless stream, so a driver can
// pace a session batch by batch without holding its whole lifetime in
// memory, and a million concurrent sessions cost a million generator
// cursors, not a million logs.
//
// The stream is deterministic: the same Process and GenConfig yield the
// same event sequence regardless of how Next calls slice it. Generation
// follows GenerateLog's model — the attack preamble first for infected
// processes, then weighted operations in payload/application bursts —
// but bursts always run to completion (nothing truncates the stream), so
// a Generator's events are not byte-identical to a GenerateLog call with
// the same seed; sessions that need log/stream parity should slice a
// generated log instead.
type Generator struct {
	proc     *Process
	g        *logGen
	appOps   []*builtOp
	appW     float64
	fraction float64
	maxBurst int
	emitted  int // absolute ordinal of the next event handed out
}

// Generator starts an incremental event stream for the process.
// GenConfig is interpreted as for GenerateLog except that Events is
// ignored (the stream has no end; the caller decides the session
// lifetime) and must be zero.
func (p *Process) Generator(cfg GenConfig) (*Generator, error) {
	if cfg.Events != 0 {
		return nil, errors.New("appsim: Generator ignores GenConfig.Events; set the lifetime at the caller")
	}
	return p.newGenerator(cfg)
}

// Next returns the next n events of the stream. The returned slice is
// owned by the caller; successive calls continue where the previous one
// stopped, with Seq numbering the absolute stream ordinal.
func (gen *Generator) Next(n int) []trace.Event {
	if n <= 0 {
		return nil
	}
	g := gen.g
	for len(g.log.Events) < n {
		fromPayload := gen.proc.payload != nil && g.rng.Float64() < gen.fraction
		burst := 1 + g.rng.Intn(gen.maxBurst)
		for b := 0; b < burst; b++ {
			if fromPayload {
				g.emitOp(pickOp(g.rng, gen.proc.payload.ops, gen.proc.payload.totalW), payloadTID)
			} else {
				g.emitOp(pickOp(g.rng, gen.appOps, gen.appW), benignTID)
			}
		}
	}
	out := make([]trace.Event, n)
	copy(out, g.log.Events)
	rest := copy(g.log.Events, g.log.Events[n:])
	for i := rest; i < len(g.log.Events); i++ {
		g.log.Events[i] = trace.Event{} // release stack walks to the GC
	}
	g.log.Events = g.log.Events[:rest]
	for i := range out {
		out[i].Seq = gen.emitted
		gen.emitted++
	}
	return out
}
