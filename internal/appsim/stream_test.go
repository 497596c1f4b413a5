package appsim

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

func testProcess(t *testing.T) *Process {
	t.Helper()
	app, err := AppProfile("vim")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := PayloadProfile("reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProcess(app, &payload, MethodOnlineInjection)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGeneratorChunkingInvariance is the stream contract: the event
// sequence depends only on (process, config), never on how Next calls
// slice it — one Next(1000) equals four Next(250)s equals a thousand
// Next(1)s.
func TestGeneratorChunkingInvariance(t *testing.T) {
	p := testProcess(t)
	cfg := GenConfig{Seed: 11, PayloadFraction: 0.3, PID: 5}

	gen1, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	whole := gen1.Next(1000)

	gen2, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var quarters []trace.Event
	for i := 0; i < 4; i++ {
		quarters = append(quarters, gen2.Next(250)...)
	}

	gen3, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var singles []trace.Event
	for i := 0; i < 1000; i++ {
		singles = append(singles, gen3.Next(1)...)
	}

	if !reflect.DeepEqual(whole, quarters) {
		t.Fatal("Next(1000) != 4x Next(250)")
	}
	if !reflect.DeepEqual(whole, singles) {
		t.Fatal("Next(1000) != 1000x Next(1)")
	}
	for i, e := range whole {
		if e.Seq != i {
			t.Fatalf("event %d carries Seq %d; want the absolute stream ordinal", i, e.Seq)
		}
	}
	// Each generator counted 1000 events handed out.
	for i, gen := range []*Generator{gen1, gen2, gen3} {
		if seq := gen.Next(1)[0].Seq; seq != 1000 {
			t.Fatalf("generator %d: the next event carries Seq %d, want 1000", i+1, seq)
		}
	}
}

// TestGeneratorDeterminism proves two generators with the same config
// emit identical streams, and different seeds diverge.
func TestGeneratorDeterminism(t *testing.T) {
	p := testProcess(t)
	cfg := GenConfig{Seed: 11, PayloadFraction: 0.3}
	g1, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Next(500), g2.Next(500)) {
		t.Fatal("same config produced different streams")
	}
	cfg.Seed = 12
	g3, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(g1.Next(500), g3.Next(500)) {
		t.Fatal("different seeds produced identical streams")
	}
}

// TestGeneratorInfectedPreamble proves infected streams open with the
// attack-establishment events, exactly like GenerateLog's mixed logs.
func TestGeneratorInfectedPreamble(t *testing.T) {
	p := testProcess(t)
	gen, err := p.Generator(GenConfig{Seed: 3, PayloadFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	head := gen.Next(2)
	if head[0].Type != trace.EventMemAlloc || head[1].Type != trace.EventThreadCreate {
		t.Fatalf("online-injection stream opens with %s,%s; want MemAlloc,ThreadCreate",
			head[0].Type, head[1].Type)
	}
}

// TestGeneratorRejectsEvents proves the lifetime knob stays with the
// caller: GenConfig.Events is GenerateLog's contract, not the stream's.
func TestGeneratorRejectsEvents(t *testing.T) {
	p := testProcess(t)
	if _, err := p.Generator(GenConfig{Seed: 1, Events: 100}); err == nil {
		t.Fatal("Generator accepted GenConfig.Events")
	}
	if got := p.mustGenerator(t, GenConfig{Seed: 1}).Next(0); got != nil {
		t.Fatalf("Next(0) returned %d events, want none", len(got))
	}
}

// mustGenerator builds a generator or fails the test.
func (p *Process) mustGenerator(t *testing.T, cfg GenConfig) *Generator {
	t.Helper()
	gen, err := p.Generator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}
