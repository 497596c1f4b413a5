package weight

import (
	"math"
	"slices"
	"testing"

	"repro/internal/appsim"
	"repro/internal/cfg"
	"repro/internal/partition"
	"repro/internal/trace"
)

// buildInference constructs a mixed inference from explicit stack traces.
func buildInference(t *testing.T, stacks [][]uint64) *cfg.Inference {
	t.Helper()
	log := &partition.Log{}
	for i, s := range stacks {
		e := partition.Event{Seq: i, Type: trace.EventFileRead}
		for _, a := range s {
			e.AppTrace = append(e.AppTrace, trace.Frame{Addr: a})
		}
		log.Events = append(log.Events, e)
	}
	inf, err := cfg.Infer(log)
	if err != nil {
		t.Fatal(err)
	}
	return inf
}

// pathWeight returns the score res gave the mixed CFG's edge e, NaN when
// the CFG lacks it.
func pathWeight(res *Result, mixed *cfg.Inference, e cfg.Edge) float64 {
	if id := slices.Index(mixed.Edges, e); id >= 0 {
		return res.PathWeight[id]
	}
	return math.NaN()
}

func TestAssessValidation(t *testing.T) {
	if _, err := Assess(nil, &cfg.Inference{Graph: cfg.NewGraph()}, Config{}); err == nil {
		t.Error("nil benign accepted")
	}
	if _, err := Assess(cfg.NewGraph(), nil, Config{}); err == nil {
		t.Error("nil mixed accepted")
	}
}

func TestAssessConnectedPathsScoreOne(t *testing.T) {
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	benign.AddEdge(200, 300)
	// Mixed log replays exactly the benign path.
	mixed := buildInference(t, [][]uint64{{100, 200, 300}})
	res, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ConnectedPaths != 2 || res.EstimatedPaths != 0 || res.OutsidePaths != 0 {
		t.Errorf("path counts = (%d,%d,%d), want (2,0,0)",
			res.ConnectedPaths, res.EstimatedPaths, res.OutsidePaths)
	}
	if w := res.Benignity(0, -1); w != 1 {
		t.Errorf("event benignity = %v, want 1", w)
	}
}

func TestAssessTransitivelyConnectedScoresOne(t *testing.T) {
	// The benign CFG has 100 -> 150 -> 300; the mixed path jumps
	// 100 -> 300 directly. CHECK_CFG uses reachability, so it scores 1.
	benign := cfg.NewGraph()
	benign.AddEdge(100, 150)
	benign.AddEdge(150, 300)
	mixed := buildInference(t, [][]uint64{{100, 300}})
	res, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w := pathWeight(res, mixed, cfg.Edge{From: 100, To: 300}); w != 1 {
		t.Errorf("transitive path weight = %v, want 1", w)
	}
}

func TestAssessOutsidePathsScoreZero(t *testing.T) {
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	// Payload region far above the benign range.
	mixed := buildInference(t, [][]uint64{{5000, 6000, 7000}})
	res, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutsidePaths != 2 {
		t.Errorf("OutsidePaths = %d, want 2", res.OutsidePaths)
	}
	if w := res.Benignity(0, -1); w != 0 {
		t.Errorf("payload event benignity = %v, want 0", w)
	}
}

func TestAssessDensityEstimate(t *testing.T) {
	// Benign nodes at 100 and 200. An unseen path starting at 150 (the
	// midpoint) gets weight 1 - 50/100 = 0.5; at 190, 1 - 10/100 = 0.9.
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	tests := []struct {
		start uint64
		want  float64
	}{
		{150, 0.5},
		{190, 0.9},
		{110, 0.9},
		{100, 1}, // exactly on a benign node
	}
	for _, tt := range tests {
		mixed := buildInference(t, [][]uint64{{tt.start, 180}})
		res, err := Assess(benign, mixed, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := pathWeight(res, mixed, cfg.Edge{From: tt.start, To: 180})
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("estimate(start=%d) = %v, want %v", tt.start, got, tt.want)
		}
	}
}

func TestAssessDensityEstimateDisabled(t *testing.T) {
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	mixed := buildInference(t, [][]uint64{{150, 180}})
	res, err := Assess(benign, mixed, Config{DisableDensityEstimate: true})
	if err != nil {
		t.Fatal(err)
	}
	if w := pathWeight(res, mixed, cfg.Edge{From: 150, To: 180}); w != 0 {
		t.Errorf("weight with estimate disabled = %v, want 0", w)
	}
	if res.EstimatedPaths != 0 || res.OutsidePaths != 1 {
		t.Errorf("counts = (%d estimated, %d outside), want (0, 1)",
			res.EstimatedPaths, res.OutsidePaths)
	}
}

func TestAssessRangeRequiresBothEndpoints(t *testing.T) {
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	// Start inside the benign range but end far outside: not estimable.
	mixed := buildInference(t, [][]uint64{{150, 9000}})
	res, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w := pathWeight(res, mixed, cfg.Edge{From: 150, To: 9000}); w != 0 {
		t.Errorf("out-of-range end scored %v, want 0", w)
	}
}

func TestAssessEventAveraging(t *testing.T) {
	// One event contributes a benign path (1.0) and an outside path (0.0):
	// its benignity is the average, 0.5.
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	mixed := buildInference(t, [][]uint64{{100, 200, 6000}})
	res, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if w := res.Benignity(0, -1); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("averaged benignity = %v, want 0.5", w)
	}
}

func TestBenignityDefault(t *testing.T) {
	// Event 0 is stackless and event 1 has a lone frame with no event
	// before it: neither contributes a path. Event 1's trace is a prefix
	// of event 2's, so event 2 contributes only its explicit path.
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	mixed := buildInference(t, [][]uint64{{}, {100}, {100, 200}})
	res, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seq, want := range []float64{0.5, 0.5, 1, 0.5} {
		if got := res.Benignity(seq, 0.5); got != want {
			t.Errorf("Benignity(%d) = %v, want %v", seq, got, want)
		}
	}
	if got := res.Benignity(-1, 0.5); got != 0.5 {
		t.Errorf("Benignity(-1) = %v, want default", got)
	}
}

func TestMeanBenignity(t *testing.T) {
	// Events 0 and 1 score 1 and 0; events 2 and 3 are stackless.
	benign := cfg.NewGraph()
	benign.AddEdge(100, 200)
	mixed := buildInference(t, [][]uint64{{100, 200}, {5000, 6000}, {}, {}})
	r, err := Assess(benign, mixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanBenignity(0, 2, 0.5); got != 0.5 {
		t.Errorf("MeanBenignity(0,2) = %v, want 0.5", got)
	}
	// Unscored event uses the default.
	if got := r.MeanBenignity(0, 4, 1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("MeanBenignity(0,4) = %v, want 0.75", got)
	}
	if got := r.MeanBenignity(5, 5, 0.3); got != 0.3 {
		t.Errorf("MeanBenignity(empty) = %v, want default", got)
	}
}

// End-to-end separation invariant on simulated data: payload events score
// far below benign events in the mixed log.
func TestAssessSeparatesPayloadFromBenign(t *testing.T) {
	for _, method := range []appsim.AttackMethod{appsim.MethodOfflineInfection, appsim.MethodOnlineInjection} {
		t.Run(method.String(), func(t *testing.T) {
			payload := appsim.ReverseTCPProfile()
			proc, err := appsim.NewProcess(appsim.WinSCPProfile(), &payload, method)
			if err != nil {
				t.Fatal(err)
			}
			clean, err := appsim.NewProcess(appsim.WinSCPProfile(), nil, appsim.MethodNone)
			if err != nil {
				t.Fatal(err)
			}
			cleanLog, err := clean.GenerateLog(appsim.GenConfig{Seed: 10, Events: 3000, PID: 1})
			if err != nil {
				t.Fatal(err)
			}
			mixedLog, err := proc.GenerateLog(appsim.GenConfig{Seed: 11, Events: 3000, PayloadFraction: 0.4, PID: 2})
			if err != nil {
				t.Fatal(err)
			}
			cleanPart, err := partition.Split(cleanLog)
			if err != nil {
				t.Fatal(err)
			}
			mixedPart, err := partition.Split(mixedLog)
			if err != nil {
				t.Fatal(err)
			}
			benignInf, err := cfg.Infer(cleanPart)
			if err != nil {
				t.Fatal(err)
			}
			mixedInf, err := cfg.Infer(mixedPart)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Assess(benignInf.Graph, mixedInf, Config{})
			if err != nil {
				t.Fatal(err)
			}
			var benignSum, benignN, payloadSum, payloadN float64
			for i, e := range mixedLog.Events {
				w := res.Benignity(i, 0.5)
				if e.TID == 9 { // payload thread
					payloadSum += w
					payloadN++
				} else {
					benignSum += w
					benignN++
				}
			}
			benignMean := benignSum / benignN
			payloadMean := payloadSum / payloadN
			if benignMean < 0.8 {
				t.Errorf("benign mean benignity = %.3f, want >= 0.8", benignMean)
			}
			if payloadMean > 0.35 {
				t.Errorf("payload mean benignity = %.3f, want <= 0.35", payloadMean)
			}
			if benignMean-payloadMean < 0.5 {
				t.Errorf("separation = %.3f, want >= 0.5", benignMean-payloadMean)
			}
		})
	}
}

// TestAssessAllocs requires Assess to allocate per distinct edge and
// edge set, not per event: a mixed log that repeats the same walks
// allocates as often at 8× its length as at 1×. The log holds its events
// twice, so the pair of walks that joins one copy to the next is in it
// at 1× as well.
func TestAssessAllocs(t *testing.T) {
	payload := appsim.ReverseTCPProfile()
	proc, err := appsim.NewProcess(appsim.WinSCPProfile(), &payload, appsim.MethodOnlineInjection)
	if err != nil {
		t.Fatal(err)
	}
	cleanLog, err := proc.GenerateLog(appsim.GenConfig{Seed: 10, Events: 1500, PID: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixedLog, err := proc.GenerateLog(appsim.GenConfig{Seed: 11, Events: 1500, PayloadFraction: 0.4, PID: 2})
	if err != nil {
		t.Fatal(err)
	}
	infer := func(log *trace.Log, k int) *cfg.Inference {
		rep := &trace.Log{App: log.App, PID: log.PID, Modules: log.Modules}
		for range k {
			for _, e := range log.Events {
				e.Seq = rep.Len()
				rep.Events = append(rep.Events, e)
			}
		}
		inf, err := cfg.Infer(split(t, rep))
		if err != nil {
			t.Fatal(err)
		}
		return inf
	}
	benign := infer(cleanLog, 1).Graph
	allocs := func(mixed *cfg.Inference) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Assess(benign, mixed, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	once, eight := allocs(infer(mixedLog, 2)), allocs(infer(mixedLog, 16))
	if once != eight {
		t.Errorf("Assess allocated %.0f times on a 3,000-event log and %.0f times on the same walks 8× over", once, eight)
	}
}
