package callgraph

import (
	"testing"

	"repro/internal/appsim"
	"repro/internal/partition"
	"repro/internal/trace"
)

// sysEvent builds a partitioned event whose system trace walks the given
// module!function names in order.
func sysEvent(typ trace.EventType, names ...[2]string) partition.Event {
	e := partition.Event{Type: typ}
	for i, mf := range names {
		e.SysTrace = append(e.SysTrace, trace.Frame{
			Addr: uint64(i + 1), Module: mf[0], Function: mf[1],
		})
	}
	return e
}

func TestTrainValidation(t *testing.T) {
	l := &partition.Log{}
	if _, err := Train(nil, l); err == nil {
		t.Error("nil benign accepted")
	}
	if _, err := Train(l, nil); err == nil {
		t.Error("nil mixed accepted")
	}
}

// TestClassifyExclusiveEdges and the other Classify tests score
// one-event windows: WindowVotes over one event is that event's votes.
func TestClassifyExclusiveEdges(t *testing.T) {
	benignEvent := sysEvent(trace.EventFileRead,
		[2]string{"k32", "ReadFile"}, [2]string{"ntdll", "NtReadFile"})
	maliciousEvent := sysEvent(trace.EventNetSend,
		[2]string{"ws2", "send"}, [2]string{"afd", "Send"})

	benignLog := &partition.Log{Events: []partition.Event{benignEvent}}
	mixedLog := &partition.Log{Events: []partition.Event{benignEvent, maliciousEvent}}
	m, err := Train(benignLog, mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	if bcg, mcg := m.Edges(); len(bcg) != 1 || len(mcg) != 2 {
		t.Fatalf("graph sizes = (%d,%d), want (1,2)", len(bcg), len(mcg))
	}
	// The benign event's edge is in both graphs: undecidable — the
	// paper's central complaint about this model.
	if got := m.ClassifyWindow([]partition.Event{benignEvent}); got != VerdictUndecided {
		t.Errorf("benign-event verdict = %v, want undecided", got)
	}
	// The malicious event's edge is exclusive to the MCG.
	if got := m.ClassifyWindow([]partition.Event{maliciousEvent}); got != VerdictMalicious {
		t.Errorf("malicious-event verdict = %v, want malicious", got)
	}
	// An unseen stack yields no votes.
	unseen := sysEvent(trace.EventRegistryRead, [2]string{"adv", "RegOpen"}, [2]string{"ntdll", "NtOpenKey"})
	if got := m.ClassifyWindow([]partition.Event{unseen}); got != VerdictUndecided {
		t.Errorf("unseen-event verdict = %v, want undecided", got)
	}
}

func TestClassifyBenignExclusive(t *testing.T) {
	benignOnly := sysEvent(trace.EventRegistryRead,
		[2]string{"adv", "RegOpen"}, [2]string{"ntdll", "NtOpenKey"})
	other := sysEvent(trace.EventNetSend,
		[2]string{"ws2", "send"}, [2]string{"afd", "Send"})
	m, err := Train(
		&partition.Log{Events: []partition.Event{benignOnly}},
		&partition.Log{Events: []partition.Event{other}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ClassifyWindow([]partition.Event{benignOnly}); got != VerdictBenign {
		t.Errorf("verdict = %v, want benign", got)
	}
}

func TestClassifySingleFrameNoEdges(t *testing.T) {
	one := sysEvent(trace.EventFileRead, [2]string{"k32", "ReadFile"})
	m, err := Train(
		&partition.Log{Events: []partition.Event{one}},
		&partition.Log{Events: []partition.Event{}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ClassifyWindow([]partition.Event{one}); got != VerdictUndecided {
		t.Errorf("single-frame verdict = %v, want undecided", got)
	}
}

func TestClassifyWindowMajority(t *testing.T) {
	benignOnly := sysEvent(trace.EventRegistryRead,
		[2]string{"adv", "RegOpen"}, [2]string{"ntdll", "NtOpenKey"})
	maliciousOnly := sysEvent(trace.EventNetSend,
		[2]string{"ws2", "send"}, [2]string{"afd", "Send"})
	m, err := Train(
		&partition.Log{Events: []partition.Event{benignOnly}},
		&partition.Log{Events: []partition.Event{maliciousOnly}},
	)
	if err != nil {
		t.Fatal(err)
	}
	win := []partition.Event{benignOnly, benignOnly, maliciousOnly}
	if got := m.ClassifyWindow(win); got != VerdictBenign {
		t.Errorf("window verdict = %v, want benign", got)
	}
	win = []partition.Event{maliciousOnly, maliciousOnly, benignOnly}
	if got := m.ClassifyWindow(win); got != VerdictMalicious {
		t.Errorf("window verdict = %v, want malicious", got)
	}
	win = []partition.Event{benignOnly, maliciousOnly}
	if got := m.ClassifyWindow(win); got != VerdictUndecided {
		t.Errorf("tied window verdict = %v, want undecided", got)
	}
	if got := m.ClassifyWindow(nil); got != VerdictUndecided {
		t.Errorf("empty window verdict = %v, want undecided", got)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictBenign.String() != "benign" || VerdictMalicious.String() != "malicious" ||
		VerdictUndecided.String() != "undecided" {
		t.Error("verdict names wrong")
	}
	if Verdict(9).String() != "Verdict(9)" {
		t.Error("unknown verdict name wrong")
	}
}

// On simulated data, pure-malicious events, each a one-event window,
// should classify mostly
// malicious while many benign events are undecided (their edges occur in
// both graphs) — the phenomenon the paper reports as CGraph's low benign
// hit rate.
func TestSimulatedBehaviour(t *testing.T) {
	payload := appsim.ReverseTCPProfile()
	proc, err := appsim.NewProcess(appsim.VimProfile(), &payload, appsim.MethodOfflineInfection)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := appsim.NewProcess(appsim.VimProfile(), nil, appsim.MethodNone)
	if err != nil {
		t.Fatal(err)
	}
	standalone, err := appsim.NewStandaloneProcess(appsim.ReverseTCPProfile())
	if err != nil {
		t.Fatal(err)
	}

	benignLog, err := clean.GenerateLog(appsim.GenConfig{Seed: 1, Events: 2500, PID: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixedLog, err := proc.GenerateLog(appsim.GenConfig{Seed: 2, Events: 2500, PayloadFraction: 0.4, PID: 2})
	if err != nil {
		t.Fatal(err)
	}
	malLog, err := standalone.GenerateLog(appsim.GenConfig{Seed: 3, Events: 1000, PID: 3})
	if err != nil {
		t.Fatal(err)
	}

	bp, err := partition.Split(benignLog)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := partition.Split(mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := partition.Split(malLog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Train(bp, mp)
	if err != nil {
		t.Fatal(err)
	}

	var malCorrect, malTotal int
	for i := range tp.Events {
		if m.ClassifyWindow(tp.Events[i:i+1]) == VerdictMalicious {
			malCorrect++
		}
		malTotal++
	}
	var benignDecided, benignTotal int
	for i := range bp.Events {
		if m.ClassifyWindow(bp.Events[i:i+1]) == VerdictBenign {
			benignDecided++
		}
		benignTotal++
	}
	malRate := float64(malCorrect) / float64(malTotal)
	benignRate := float64(benignDecided) / float64(benignTotal)
	if malRate < 0.3 {
		t.Errorf("malicious hit rate = %.3f, want >= 0.3", malRate)
	}
	// The model's weakness: benign hit rate stays low because benign
	// edges appear in both graphs.
	if benignRate > 0.6 {
		t.Errorf("benign hit rate = %.3f — unexpectedly high for the CGraph baseline", benignRate)
	}
}
