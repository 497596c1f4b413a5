package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/appsim"
	"repro/internal/cfg"
	"repro/internal/dataset"
	"repro/internal/partition"
	"repro/internal/preprocess"
	"repro/internal/report"
	"repro/internal/svm"
	"repro/internal/trace"
)

// Figure2 reproduces the paper's Figure 2: it preprocesses one system
// event — hierarchical clustering of its library and function sets — and
// renders the event's stack alongside the resulting discretised 3-tuple.
func Figure2(seed int64) (string, error) {
	clean, err := appsim.NewProcess(appsim.VimProfile(), nil, appsim.MethodNone)
	if err != nil {
		return "", err
	}
	log, err := clean.GenerateLog(appsim.GenConfig{Seed: seed, Events: 1500, PID: 1})
	if err != nil {
		return "", err
	}
	part, err := partition.Split(log)
	if err != nil {
		return "", err
	}
	enc, err := preprocess.Fit(part.Events, preprocess.Config{})
	if err != nil {
		return "", err
	}
	// Pick the first event with a reasonably deep system stack, as the
	// paper picks a SysCallEnter with a full walk.
	var pick *partition.Event
	for i := range part.Events {
		if len(part.Events[i].SysTrace) >= 5 {
			pick = &part.Events[i]
			break
		}
	}
	if pick == nil {
		pick = &part.Events[0]
	}
	tuple := enc.EncodeOne(&preprocess.Scratch{}, pick)

	var b strings.Builder
	fmt.Fprintf(&b, "Event @%d  type=%v\n", pick.Seq, pick.Type)
	b.WriteString("System stack trace:\n")
	for _, fr := range pick.SysTrace {
		fmt.Fprintf(&b, "  %s!%s\n", fr.Module, fr.Function)
	}
	fmt.Fprintf(&b, "Clusters learned: %d library-set, %d function-set\n",
		enc.NumLibClusters(), enc.NumFuncClusters())
	fmt.Fprintf(&b, "Discretised 3-tuple: {Event_Type:%d, Lib:%d, Func:%d}\n",
		tuple.EventType, tuple.Lib, tuple.Func)
	return b.String(), nil
}

// Figure4Stats summarises a benign-vs-mixed CFG comparison like the
// paper's Figure 4 (vim with a reverse TCP shell): graph sizes, shared
// structure, and the payload's separate region.
type Figure4Stats struct {
	BenignNodes, BenignEdges int
	MixedNodes, MixedEdges   int
	CommonEdges              int
	MixedOnlyEdges           int
	// PayloadRegionNodes counts mixed-CFG nodes outside the benign
	// application code (the right-hand subgraph of Figure 4).
	PayloadRegionNodes int
	MixedComponents    int
	// BenignDOT and MixedDOT are Graphviz renderings of the two CFGs.
	BenignDOT, MixedDOT string
}

// Figure4 infers the benign and mixed CFGs of the vim_reverse_tcp dataset
// and compares them.
func Figure4(seed int64) (*Figure4Stats, error) {
	spec, err := dataset.ByName("vim_reverse_tcp")
	if err != nil {
		return nil, err
	}
	logs, err := spec.Generate(seed)
	if err != nil {
		return nil, err
	}
	benignPart, err := partition.Split(logs.Benign)
	if err != nil {
		return nil, err
	}
	mixedPart, err := partition.Split(logs.Mixed)
	if err != nil {
		return nil, err
	}
	benign, err := cfg.Infer(benignPart)
	if err != nil {
		return nil, err
	}
	mixed, err := cfg.Infer(mixedPart)
	if err != nil {
		return nil, err
	}
	diff := cfg.DiffGraphs(benign.Graph, mixed.Graph)
	_, benignHi := logs.Victim.BenignRange()
	stats := &Figure4Stats{
		BenignNodes:     benign.Graph.NumNodes(),
		BenignEdges:     benign.Graph.NumEdges(),
		MixedNodes:      mixed.Graph.NumNodes(),
		MixedEdges:      mixed.Graph.NumEdges(),
		CommonEdges:     len(diff.Common),
		MixedOnlyEdges:  len(diff.OnlyB),
		MixedComponents: len(mixed.Graph.WeaklyConnectedComponents()),
	}
	for _, n := range mixed.Graph.Nodes() {
		if n >= benignHi {
			stats.PayloadRegionNodes++
		}
	}
	resolve := func(a uint64) string {
		f := logs.Victim.Modules().Resolve(trace.Frame{Addr: a})
		return f.Function
	}
	stats.BenignDOT = benign.Graph.DOT("vim_benign_cfg", resolve)
	stats.MixedDOT = mixed.Graph.DOT("vim_mixed_cfg", resolve)
	return stats, nil
}

// String renders the comparison.
func (s *Figure4Stats) String() string {
	t := report.NewTable("Graph", "Nodes", "Edges")
	t.AddRow("benign CFG", fmt.Sprint(s.BenignNodes), fmt.Sprint(s.BenignEdges))
	t.AddRow("mixed CFG", fmt.Sprint(s.MixedNodes), fmt.Sprint(s.MixedEdges))
	return t.String() + fmt.Sprintf(
		"common edges: %d\nmixed-only edges: %d\npayload-region nodes in mixed CFG: %d\nmixed CFG components: %d\n",
		s.CommonEdges, s.MixedOnlyEdges, s.PayloadRegionNodes, s.MixedComponents)
}

// Figure5Result quantifies the paper's Figure 5 illustration: on a 2-D
// training set whose negative labels are noisy, the weighted SVM recovers
// the true boundary the plain SVM loses.
type Figure5Result struct {
	SVMAccuracy  float64
	WSVMAccuracy float64
}

// Figure5 builds the two-cluster noisy-label toy problem and scores both
// models on clean held-out data.
func Figure5(seed int64) (*Figure5Result, error) {
	rng := rand.New(rand.NewSource(seed))
	var prob svm.Problem
	add := func(cx, cy, label, w float64) {
		prob.X = append(prob.X, []float64{cx + rng.NormFloat64()*0.4, cy + rng.NormFloat64()*0.4})
		prob.Y = append(prob.Y, label)
		prob.Weight = append(prob.Weight, w)
	}
	for i := 0; i < 80; i++ {
		add(0, 0, 1, 1) // benign cluster
	}
	for i := 0; i < 80; i++ {
		add(2.2, 2.2, -1, 0.9) // true malicious cluster
	}
	for i := 0; i < 80; i++ {
		add(0, 0, -1, 0.05) // mislabeled benign points inside the mixed data
	}
	params := svm.Params{Lambda: 5, Kernel: svm.RBFKernel{Sigma2: 2}}
	weighted, err := svm.Train(prob, params)
	if err != nil {
		return nil, err
	}
	plain, err := svm.Train(svm.Problem{X: prob.X, Y: prob.Y}, params)
	if err != nil {
		return nil, err
	}
	score := func(m *svm.Model) float64 {
		const trials = 400
		correct := 0
		for i := 0; i < trials; i++ {
			if m.Predict([]float64{rng.NormFloat64() * 0.4, rng.NormFloat64() * 0.4}) == 1 {
				correct++
			}
			if m.Predict([]float64{2.2 + rng.NormFloat64()*0.4, 2.2 + rng.NormFloat64()*0.4}) == -1 {
				correct++
			}
		}
		return float64(correct) / float64(2*trials)
	}
	return &Figure5Result{SVMAccuracy: score(plain), WSVMAccuracy: score(weighted)}, nil
}
