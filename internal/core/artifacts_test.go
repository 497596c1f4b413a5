package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/trace"
	"repro/internal/weight"
)

// splitPerEvent partitions every event of log on its own, into a log
// without a walk index: the per-event path, on which fit, encode, call
// graph and CFG inference visit every event.
func splitPerEvent(t testing.TB, log *trace.Log) *partition.Log {
	t.Helper()
	out := &partition.Log{App: log.App, PID: log.PID}
	for i := range log.Events {
		one := trace.Log{App: log.App, PID: log.PID, Modules: log.Modules, Events: log.Events[i : i+1]}
		part, err := partition.Split(&one)
		if err != nil {
			t.Fatal(err)
		}
		out.Events = append(out.Events, part.Events[0])
	}
	return out
}

// referenceArtifacts builds the artifacts of benign and mixed on the
// per-event path.
func referenceArtifacts(t testing.TB, benign, mixed *trace.Log, config Config) *Artifacts {
	t.Helper()
	config = config.withDefaults()
	bp, mp := splitPerEvent(t, benign), splitPerEvent(t, mixed)
	enc, err := preprocess.Fit(append(slices.Clone(bp.Events), mp.Events...), preprocess.Config{})
	if err != nil {
		t.Fatal(err)
	}
	art, err := buildArtifactsFromParts(context.Background(), bp, mp, enc, config)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// artifactInputs are benign/mixed pairs that stress the walk index,
// keyed by what they stress: the stack inputs of the featurizer tests,
// cut to 1497 events per log to keep -race runs short and end on a
// partial window.
func artifactInputs(t testing.TB, seed int64) map[string][2]*trace.Log {
	logs := genLogs(t, "vim_reverse_tcp", seed)
	cut := func(l *trace.Log) *trace.Log {
		c := *l
		c.Events = l.Events[:1497]
		return &c
	}
	benign, mixed := stackInputs(cut(logs.Benign)), stackInputs(cut(logs.Mixed))
	out := make(map[string][2]*trace.Log, len(benign))
	for name := range benign {
		out[name] = [2]*trace.Log{benign[name], mixed[name]}
	}
	return out
}

// trainCallGraph returns the call-graph model trained on benign and
// mixed.
func trainCallGraph(t testing.TB, benign, mixed *partition.Log) *callgraph.Model {
	t.Helper()
	cg, err := callgraph.Train(benign, mixed)
	if err != nil {
		t.Fatal(err)
	}
	return cg
}

// cfgView is an inference as its readers see it, whatever walk index it
// was built from: the graph, the numbered edges, which are explicit, the
// events behind each edge and the counts. Event sets are numbered per
// walk, so an inference over a log without a walk index holds other
// tables for the same view.
type cfgView struct {
	Graph                                       *cfg.Graph
	Edges                                       []cfg.Edge
	Explicit                                    []bool
	Events                                      [][]int
	ExplicitEdges, ImplicitEdges, SkippedEvents int
}

func viewCFG(inf *cfg.Inference) cfgView {
	v := cfgView{Graph: inf.Graph, Edges: inf.Edges, Explicit: inf.Explicit,
		ExplicitEdges: inf.ExplicitEdges, ImplicitEdges: inf.ImplicitEdges, SkippedEvents: inf.SkippedEvents}
	for id := range inf.Edges {
		v.Events = append(v.Events, inf.Events(id))
	}
	return v
}

// weightView is an assessment of an n-event log as its readers see it:
// each path's score and each event's benignity (-1 when unscored), as
// bits, and the path counts.
type weightView struct {
	PathWeight, Benignity                        []uint64
	ConnectedPaths, EstimatedPaths, OutsidePaths int
}

func viewWeights(res *weight.Result, n int) weightView {
	v := weightView{ConnectedPaths: res.ConnectedPaths, EstimatedPaths: res.EstimatedPaths, OutsidePaths: res.OutsidePaths}
	for _, w := range res.PathWeight {
		v.PathWeight = append(v.PathWeight, math.Float64bits(w))
	}
	for seq := range n {
		v.Benignity = append(v.Benignity, math.Float64bits(res.Benignity(seq, -1)))
	}
	return v
}

// TestArtifactsMatchPerEventReference requires BuildArtifacts, which
// fits, encodes, infers CFGs and trains the call graph once per distinct
// stack walk, to equal the per-event path on every artifact (the CFGs
// and weights through the view their readers have) and on the saved
// model, at Parallel 1 and at every processor; and the call graph of
// benign training windows gathered from the walk-indexed log to equal
// the one over the same events without an index.
func TestArtifactsMatchPerEventReference(t *testing.T) {
	ctx := context.Background()
	for name, pair := range artifactInputs(t, 41) {
		config := fastConfig(41)
		want := referenceArtifacts(t, pair[0], pair[1], config)
		wantModel := saveDigest(t, mustTrain(t, want))
		for _, parallel := range []int{1, 0} {
			config.Parallel = parallel
			got, err := BuildArtifacts(ctx, pair[0], pair[1], config)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want.cfg.Parallel = parallel
			if name == "appsim" && got.BenignPart.NumWalks() >= got.BenignPart.Len() {
				t.Fatalf("%s: %d walks for %d benign events; the check would be vacuous",
					name, got.BenignPart.NumWalks(), got.BenignPart.Len())
			}
			for _, c := range []struct {
				what      string
				got, want any
			}{
				{"encoder", got.Encoder, want.Encoder},
				{"benign events", got.BenignPart.Events, want.BenignPart.Events},
				{"mixed events", got.MixedPart.Events, want.MixedPart.Events},
				{"benign CFG", viewCFG(got.BenignCFG), viewCFG(want.BenignCFG)},
				{"mixed CFG", viewCFG(got.MixedCFG), viewCFG(want.MixedCFG)},
				{"weights", viewWeights(got.Weights, got.MixedPart.Len()), viewWeights(want.Weights, want.MixedPart.Len())},
				{"benign windows", got.benignWins, want.benignWins},
				{"mixed windows", got.mixed, want.mixed},
				{"mixed window weights", got.mixedWeight, want.mixedWeight},
				{"call graph", trainCallGraph(t, got.BenignPart, got.MixedPart), trainCallGraph(t, want.BenignPart, want.MixedPart)},
				{"config", got.cfg, want.cfg},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("%s, Parallel %d: %s differs from the per-event reference", name, parallel, c.what)
				}
			}
			if got := saveDigest(t, mustTrain(t, got)); got != wantModel {
				t.Fatalf("%s, Parallel %d: saved model differs from the per-event reference", name, parallel)
			}

			var ranges [][2]int
			wantTrain := &partition.Log{App: want.BenignPart.App, PID: want.BenignPart.PID}
			for _, w := range got.Select(41).benignTrain {
				end := min(w.start+config.Window, want.BenignPart.Len())
				ranges = append(ranges, [2]int{w.start, end})
				wantTrain.Events = append(wantTrain.Events, want.BenignPart.Events[w.start:end]...)
			}
			if !reflect.DeepEqual(trainCallGraph(t, got.BenignPart.Gather(ranges), got.MixedPart), trainCallGraph(t, wantTrain, want.MixedPart)) {
				t.Fatalf("%s, Parallel %d: call graph over gathered training windows differs from the per-event reference", name, parallel)
			}
		}
	}
}

// TestBuildArtifactsRefusesMisnumberedLog requires BuildArtifacts to
// refuse a training log whose Seq disagrees with an event's position,
// naming the event: window weights are read by position, so such a log
// would weight windows from the wrong events.
func TestBuildArtifactsRefusesMisnumberedLog(t *testing.T) {
	logs := genLogs(t, "vim_reverse_tcp", 1)
	for _, which := range []string{"benign", "mixed"} {
		benign, mixed := logs.Benign, logs.Mixed
		bad := logs.Benign.Clone()
		if which == "mixed" {
			bad = logs.Mixed.Clone()
			mixed = bad
		} else {
			benign = bad
		}
		bad.Events[7].Seq, bad.Events[8].Seq = 8, 7
		_, err := BuildArtifacts(context.Background(), benign, mixed, fastConfig(1))
		if err == nil || !strings.Contains(err.Error(), "event 7 has Seq 8") {
			t.Errorf("%s log with events 7 and 8 renumbered: %v, want an error naming event 7", which, err)
		}
	}
}

// mustTrain trains the weighted classifier of the config-seed selection.
func mustTrain(t testing.TB, art *Artifacts) *Classifier {
	t.Helper()
	clf, err := art.TrainingData().Train()
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// buildCounters are the telemetry counters the artifact build moves per
// event, window or log.
var buildCounters = []string{
	"partition_events_total",
	"partition_stackless_events_total",
	"partition_app_frames_total",
	"partition_sys_frames_total",
	"preprocess_fit_events_total",
	"preprocess_encoded_events_total",
	"preprocess_windows_total",
	"preprocess_tail_events_total",
	"cfg_infer_runs_total",
	"cfg_skipped_events_total",
	`weight_paths_total{kind="connected"}`,
	`weight_paths_total{kind="estimated"}`,
	`weight_paths_total{kind="outside"}`,
}

// TestBuildArtifactsCounters checks that BuildArtifacts moves every
// partition, preprocess, CFG and path-scoring counter exactly as the
// per-event path does, though it splits, fits, encodes and infers each
// stack walk once.
func TestBuildArtifactsCounters(t *testing.T) {
	pair := artifactInputs(t, 42)["stackless"]
	config := fastConfig(42)
	want := counterDelta(buildCounters, func() { referenceArtifacts(t, pair[0], pair[1], config) })
	for i, name := range buildCounters {
		if want[i] == 0 {
			t.Fatalf("reference moved %s by 0; the check would be vacuous", name)
		}
	}
	got := counterDelta(buildCounters, func() {
		if _, err := BuildArtifacts(context.Background(), pair[0], pair[1], config); err != nil {
			t.Fatal(err)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("BuildArtifacts moved %v by %v, per-event reference %v", buildCounters, got, want)
	}
}

// TestBuildArtifactsAllocs pins BuildArtifacts' allocation count on the
// vim_reverse_tcp training pair (seed 1, 6,005 + 6,006 events, serial),
// where the stages work once per distinct stack walk, and CFG inference
// and weight assessment once per distinct walk pair, edge and edge set.
// Per-event stages allocate 112,187 times on this pair, and the build
// with event-by-event CFG inference and assessment 4,194 times, so a
// stage that goes back to working per event fails the budget.
func TestBuildArtifactsAllocs(t *testing.T) {
	const buildArtifactsAllocBudget = 2563 // allocs per call; 2,050 measured, plus 25 %
	logs := genLogs(t, "vim_reverse_tcp", 1)
	config := fastConfig(1)
	config.Parallel = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BuildArtifacts(context.Background(), logs.Benign, logs.Mixed, config); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > buildArtifactsAllocBudget {
		t.Errorf("BuildArtifacts allocated %.0f times per call, budget %d", allocs, buildArtifactsAllocBudget)
	}
}

// TestSelectTrainAllocs bounds a grid-searched training run's
// allocations on one dataset of the benchmark's train size (3000 benign
// and 3000 mixed events): the draw, scaling, the 16-point 5-fold model
// selection, the final fit, Platt and the call graph, serially.
func TestSelectTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const selectTrainAllocBudget = 2300 // allocs per call; 1,897 measured
	spec, err := dataset.ByName("winscp_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 3000, 3000, 100
	logs, err := spec.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	art, err := BuildArtifacts(context.Background(), logs.Benign, logs.Mixed, Config{Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := art.Select(1).Train(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > selectTrainAllocBudget {
		t.Errorf("Select(1).Train allocated %.0f times per call, budget %d", allocs, selectTrainAllocBudget)
	}
}

// TestTrainAllocs bounds the whole training path with fixed parameters,
// BuildTrainingData then Train, on vim_reverse_tcp (2,000 benign and
// 2,000 mixed events, seed 1, λ 8, σ² 2), serially: the artifacts, the
// draw, scaling, the fit, Platt and the call graph.
func TestTrainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const trainAllocBudget = 5600 // allocs per call; 4,489 measured
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	spec.BenignEvents, spec.MixedEvents, spec.MaliciousEvents = 2000, 2000, 1000
	logs, err := spec.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	config := fastConfig(1)
	config.Parallel = 1
	allocs := testing.AllocsPerRun(3, func() {
		td, err := BuildTrainingData(logs.Benign, logs.Mixed, config)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := td.Train(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > trainAllocBudget {
		t.Errorf("BuildTrainingData and Train allocated %.0f times per call, budget %d", allocs, trainAllocBudget)
	}
}
