package weight

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/partition"
	"repro/internal/trace"
)

// sourceTrojanScenario models §VI-A: the adversary recompiles the
// application with an embedded payload, shifting every benign function by
// a constant. It returns the benign CFG (original addresses) and the mixed
// inference (shifted benign paths + payload paths), along with the event
// ranges of benign and payload activity in the mixed log.
func sourceTrojanScenario(t *testing.T) (benign *cfg.Graph, mixed *cfg.Inference, benignEvents, payloadEvents []int) {
	t.Helper()
	// Benign program: root 0x1000 dispatching to chains of distinct
	// lengths (structured enough for WL pivots).
	mkLog := func(base uint64, withPayload bool) *partition.Log {
		log := &partition.Log{}
		seq := 0
		addEvent := func(addrs ...uint64) {
			e := partition.Event{Seq: seq, Type: trace.EventFileRead}
			for _, a := range addrs {
				e.AppTrace = append(e.AppTrace, trace.Frame{Addr: a})
			}
			log.Events = append(log.Events, e)
			seq++
		}
		root := base
		addr := base + 0x100
		for _, chainLen := range []int{2, 3, 4, 5, 6, 7} {
			stack := []uint64{root}
			for i := 0; i < chainLen; i++ {
				stack = append(stack, addr)
				addr += 0x80
			}
			// Walk the chain twice for stable edges.
			addEvent(stack...)
			addEvent(stack...)
		}
		if withPayload {
			// Payload section above the shifted benign code.
			p := base + 0x8000
			for i := 0; i < 6; i++ {
				addEvent(p, p+0x80, p+0x100)
			}
		}
		return log
	}

	benignLog := mkLog(0x1000, false)
	mixedLog := mkLog(0x3000, true) // recompiled: everything shifted by 0x2000

	bInf, err := cfg.Infer(benignLog)
	if err != nil {
		t.Fatal(err)
	}
	mInf, err := cfg.Infer(mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mixedLog.Events {
		if mixedLog.Events[i].AppTrace[0].Addr >= 0x3000+0x8000 {
			payloadEvents = append(payloadEvents, i)
		} else {
			benignEvents = append(benignEvents, i)
		}
	}
	return bInf.Graph, mInf, benignEvents, payloadEvents
}

func TestAssessAlignedRecoversSourceTrojan(t *testing.T) {
	benign, mixed, benignEvents, payloadEvents := sourceTrojanScenario(t)

	// Without alignment, the shifted benign paths fall outside the benign
	// CFG's address range: everything scores near zero — exactly the
	// failure mode §VI-A describes.
	plain, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var plainBenignMean float64
	for _, seq := range benignEvents {
		plainBenignMean += plain.Benignity(seq, 0.5)
	}
	plainBenignMean /= float64(len(benignEvents))
	if plainBenignMean > 0.3 {
		t.Fatalf("unaligned assessment scored shifted benign events %.2f; expected the §VI-A failure (near 0)",
			plainBenignMean)
	}

	// With alignment the benign events recover high benignity while the
	// payload stays low.
	al := cfg.AlignGraphs(benign, mixed.Graph)
	if len(al.Offsets) == 0 || al.Offsets[0] != 0x2000 {
		t.Fatalf("alignment offsets = %v, want leading 0x2000", al.Offsets)
	}
	aligned, err := AssessAligned(benign, mixed, al, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var alignedBenignMean, alignedPayloadMean float64
	for _, seq := range benignEvents {
		alignedBenignMean += aligned.Benignity(seq, 0.5)
	}
	alignedBenignMean /= float64(len(benignEvents))
	for _, seq := range payloadEvents {
		alignedPayloadMean += aligned.Benignity(seq, 0.5)
	}
	alignedPayloadMean /= float64(len(payloadEvents))

	if alignedBenignMean < 0.8 {
		t.Errorf("aligned benign mean benignity = %.2f, want >= 0.8", alignedBenignMean)
	}
	if alignedPayloadMean > 0.3 {
		t.Errorf("aligned payload mean benignity = %.2f, want <= 0.3", alignedPayloadMean)
	}
}

func TestAssessAlignedValidation(t *testing.T) {
	g := cfg.NewGraph()
	g.AddEdge(1, 2)
	inf := &cfg.Inference{Graph: g}
	if _, err := AssessAligned(g, inf, nil, Config{}); err == nil {
		t.Error("nil alignment accepted")
	}
}
