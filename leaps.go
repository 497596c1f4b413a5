// Package leaps is a reproduction of "LEAPS: Detecting Camouflaged Attacks
// with Statistical Learning Guided by Program Analysis" (Gu et al., DSN
// 2015): a host-based attack detector that classifies system events as
// benign or malicious with a weighted support vector machine whose
// per-sample weights are derived from control flow graphs inferred from
// stack-walk traces in system event logs.
//
// The package is the public facade over the pipeline:
//
//	raw event-trace log (binary, ETW-like)
//	  → raw-log parsing & per-process slicing   (ParseRawLog)
//	  → stack partitioning, feature clustering,
//	    CFG inference, weight assessment,
//	    weighted SVM training                   (Train)
//	  → window-level detection on new logs      (Detector.Detect)
//
// Because the paper's substrate (Windows ETW traces of real trojaned
// applications) is not reproducible offline, the package also exposes the
// workload simulator used by the evaluation harness: GenerateDataset
// synthesises the paper's 21 benign/mixed/malicious dataset triples.
package leaps

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/autopilot"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/etl"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/svm"
	"repro/internal/trace"
	"repro/internal/weight"
)

// Re-exported log model types. A Log is a stack-event correlated log for
// one process: typed system events, each with a resolved stack walk.
type (
	// Log is a per-process stack-event correlated log.
	Log = trace.Log
	// Event is one system event with its stack walk.
	Event = trace.Event
	// EventType identifies the kind of a system event.
	EventType = trace.EventType
	// Frame is one stack-walk entry.
	Frame = trace.Frame
	// StackWalk is a captured call stack, outermost frame first.
	StackWalk = trace.StackWalk
	// Module is a loaded image (application, shared library or kernel).
	Module = trace.Module
	// ModuleMap indexes the modules of a process.
	ModuleMap = trace.ModuleMap

	// Detection is one classified event window.
	Detection = core.Detection
	// Summary bundles the five evaluation measurements (ACC, PPV, TPR,
	// TNR, NPV).
	Summary = metrics.Summary
	// Evaluation holds a full three-model evaluation of one dataset.
	Evaluation = core.EvalResult
	// DatasetLogs is one generated dataset: benign, mixed and
	// pure-malicious logs.
	DatasetLogs = dataset.Logs
	// EntryPoint is a backtracked attack entry: the control transfer
	// where benign code first handed execution to the payload.
	EntryPoint = cfg.EntryPoint
	// StreamDetector classifies a live event stream window by window.
	StreamDetector = core.StreamDetector
	// EventError reports one event a StreamDetector skipped.
	EventError = core.EventError
	// Monitor is the fault-tolerant detector front: it prefers the
	// statistical classifier and degrades to the call-graph baseline when
	// the model bundle's statistical section is unusable.
	Monitor = core.Monitor
	// LogPair is one application's benign/mixed training material for the
	// universal classifier.
	LogPair = core.LogPair

	// ServeConfig parameterises the online detection server.
	ServeConfig = serve.Config
	// Server is the online detection server: it manages concurrent
	// streaming sessions over the HTTP/JSON API served by leaps-serve.
	Server = serve.Server
	// SessionSpec describes one monitored process to POST /v1/sessions.
	SessionSpec = serve.SessionSpec
	// ServeEventBatch is the wire form of one ingest batch.
	ServeEventBatch = serve.EventBatch
	// ServeVerdict is the wire form of one classified window.
	ServeVerdict = serve.Verdict

	// ModelRegistry is the content-addressed model store behind
	// leaps-train -registry and the /v1/models lifecycle endpoints.
	ModelRegistry = registry.Store
	// ModelManifest describes one immutable registry entry.
	ModelManifest = registry.Manifest
	// TrainInfo records a published model's training provenance.
	TrainInfo = registry.TrainInfo
	// PromotionGate is the shadow-evidence policy a challenger must clear
	// before promotion.
	PromotionGate = registry.Gate
	// ShadowComparison is accumulated champion/challenger agreement
	// evidence from shadow evaluation.
	ShadowComparison = registry.Comparison

	// AutopilotConfig parameterises the retraining autopilot.
	AutopilotConfig = autopilot.Config
	// AutopilotController is the crash-safe serve→retrain→shadow→promote
	// controller behind leaps-serve -autopilot.
	AutopilotController = autopilot.Controller
	// AutopilotStatus is the controller's externally visible state (the
	// body of GET /v1/autopilot).
	AutopilotStatus = autopilot.Status
	// AutopilotRecord is one journaled controller state transition.
	AutopilotRecord = autopilot.Record
	// AutopilotLogTrainer retrains from raw event-trace logs on disk.
	AutopilotLogTrainer = autopilot.LogTrainer
	// AutopilotTrainerFunc adapts a function to the autopilot's Trainer.
	AutopilotTrainerFunc = autopilot.TrainerFunc

	// ParseOpts controls raw-log parsing fault tolerance.
	ParseOpts = etl.ParseOpts
	// ParseError is one record a lenient parse skipped.
	ParseError = etl.ParseError
	// RawFile is a parsed raw event-trace log before per-process slicing,
	// including lenient-parse telemetry (Dropped, ErrorLog).
	RawFile = etl.RawFile
)

// Option customises training and evaluation.
type Option func(*core.Config)

// WithWindow sets the event-coalescing window (default 10, the paper's
// 30-dimensional data points).
func WithWindow(n int) Option {
	return func(c *core.Config) { c.Window = n }
}

// WithSeed fixes the seed driving data selection and sampling.
func WithSeed(seed int64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithSampleFraction sets the training/testing subsampling share
// (default 0.2, per the paper's protocol).
func WithSampleFraction(f float64) Option {
	return func(c *core.Config) { c.SampleFraction = f }
}

// WithFixedParams skips cross-validated model selection and trains with
// the given λ and Gaussian-kernel σ² directly.
func WithFixedParams(lambda, sigma2 float64) Option {
	return func(c *core.Config) {
		c.FixedParams = &svm.Params{Lambda: lambda, Kernel: svm.RBFKernel{Sigma2: sigma2}}
	}
}

// WithoutDensityEstimate disables Algorithm 2's density-array weight
// interpolation (paths absent from the benign CFG score 0).
func WithoutDensityEstimate() Option {
	return func(c *core.Config) { c.Weight = weight.Config{DisableDensityEstimate: true} }
}

// WithAlignedCFGs enables the §VI-A extension: the mixed CFG is
// structurally aligned onto the benign CFG before weight assessment, which
// recovers correct weights for trojans recompiled from source (where all
// benign code addresses shift relative to the clean build).
func WithAlignedCFGs() Option {
	return func(c *core.Config) { c.AlignCFGs = true }
}

// WithParallel bounds the pipeline's internal worker pools (artifact
// building, model-selection grid points, evaluation runs). 0 — the
// default — uses every processor; 1 forces fully serial execution.
// Results are identical for any setting.
func WithParallel(n int) Option {
	return func(c *core.Config) { c.Parallel = n }
}

// Detector is a trained LEAPS classifier plus the training artifacts
// useful for inspection.
type Detector struct {
	clf *core.Classifier
	td  *core.TrainingData
}

// Train runs the full training phase on a pure-benign log and a mixed
// (benign + malicious) log of the same application: it partitions the
// stack walks, fits the feature clustering, infers both CFGs, assigns
// CFG-guided weights to the mixed data, and trains the weighted SVM.
func Train(benign, mixed *Log, opts ...Option) (*Detector, error) {
	if benign == nil || mixed == nil {
		return nil, errors.New("leaps: Train requires both a benign and a mixed log")
	}
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	td, err := core.BuildTrainingData(benign, mixed, cfg)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	clf, err := td.Train()
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return &Detector{clf: clf, td: td}, nil
}

// Detect applies the detector to a log and returns one verdict per event
// window.
func (d *Detector) Detect(log *Log) ([]Detection, error) {
	if log == nil {
		return nil, errors.New("leaps: nil log")
	}
	dets, err := d.clf.DetectLog(log)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return dets, nil
}

// BenignCFG returns the control flow graph inferred from the benign
// training log, or nil for a detector loaded from disk (training
// artifacts are not persisted).
func (d *Detector) BenignCFG() *cfg.Graph {
	if d.td == nil {
		return nil
	}
	return d.td.BenignCFG.Graph
}

// MixedCFG returns the control flow graph inferred from the mixed
// training log, or nil for a detector loaded from disk.
func (d *Detector) MixedCFG() *cfg.Graph {
	if d.td == nil {
		return nil
	}
	return d.td.MixedCFG.Graph
}

// EventBenignity reports the CFG-assessed benignity of a mixed-log event
// ordinal in [0, 1] (0.5 when the event contributed no CFG path, or when
// the detector was loaded from disk).
func (d *Detector) EventBenignity(seq int) float64 {
	if d.td == nil {
		return 0.5
	}
	return d.td.Weights.Benignity(seq, 0.5)
}

// Stream starts a streaming detection session for one process: feed
// events as they arrive and receive a Detection whenever a window
// completes. The module map identifies the monitored process's address
// space.
func (d *Detector) Stream(modules *ModuleMap) (*StreamDetector, error) {
	s, err := d.clf.Stream(modules)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return s, nil
}

// AttackEntryPoints backtracks candidate attack entry points from the
// training logs (§II-A): explicit control transfers in the mixed log from
// code the benign CFG knows into code it does not — the trojan's detour
// hook or the injected thread's bootstrap. Returns nil for detectors
// loaded from disk.
func (d *Detector) AttackEntryPoints() []EntryPoint {
	if d.td == nil {
		return nil
	}
	return cfg.EntryPoints(d.td.BenignCFG.Graph, d.td.MixedCFG)
}

// Save persists the trained detector so Detect can run in a later process
// without retraining. It writes bundle format v3, whose bytes depend on
// the model alone, so equal models save equal bytes in any process.
// Training-time artifacts (CFGs, weights) are not included.
func (d *Detector) Save(w io.Writer) error {
	if err := d.clf.Save(w); err != nil {
		return fmt.Errorf("leaps: %w", err)
	}
	return nil
}

// LoadDetector reads a detector previously written by Save. Bundles of
// earlier formats are refused with an error that says to retrain.
func LoadDetector(r io.Reader) (*Detector, error) {
	clf, err := core.LoadClassifier(r)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return &Detector{clf: clf}, nil
}

// SupportVectors reports the size of the trained model.
func (d *Detector) SupportVectors() int { return d.clf.Model().NumSVs() }

// Evaluate runs the paper's evaluation protocol on one dataset triple:
// train on benign+mixed, test on held-out benign windows (positives) and
// pure-malicious windows (negatives), with all three models (system-level
// call graph, plain SVM, weighted SVM).
func Evaluate(benign, mixed, malicious *Log, opts ...Option) (*Evaluation, error) {
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	res, err := core.Evaluate(context.Background(), benign, mixed, malicious, cfg)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return res, nil
}

// EvaluateRuns repeats Evaluate over several data selections and averages
// the measurements, as the paper averages 10 runs.
func EvaluateRuns(benign, mixed, malicious *Log, runs int, opts ...Option) (*Evaluation, error) {
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	res, err := core.EvaluateRuns(context.Background(), benign, mixed, malicious, cfg, runs)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return res, nil
}

// DatasetNames lists the paper's 21 dataset identifiers in Table I order.
func DatasetNames() []string { return dataset.Names() }

// GenerateDataset synthesises the named dataset's benign, mixed and
// pure-malicious logs deterministically from the seed.
func GenerateDataset(name string, seed int64) (*DatasetLogs, error) {
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	logs, err := spec.Generate(seed)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return logs, nil
}

// GenerateDatasetWithPayloadShare is GenerateDataset with a custom payload
// activity share for the mixed log (the default specs use the harness's
// fixed setting). Useful for studying label-noise sensitivity.
func GenerateDatasetWithPayloadShare(name string, seed int64, share float64) (*DatasetLogs, error) {
	if share <= 0 || share >= 1 {
		return nil, fmt.Errorf("leaps: payload share %v out of (0,1)", share)
	}
	spec, err := dataset.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	spec.PayloadFraction = share
	logs, err := spec.Generate(seed)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return logs, nil
}

// EvaluateUniversal trains one classifier across several applications'
// benign/mixed log pairs (the paper's §II-B2 "universal classifier") and
// tests it per application against the aligned pure-malicious logs. It
// returns the per-application summaries and the pooled summary.
func EvaluateUniversal(pairs []LogPair, malicious []*Log, opts ...Option) ([]Summary, Summary, error) {
	var cfg core.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	perApp, pooled, err := core.EvaluateUniversal(context.Background(), pairs, malicious, cfg)
	if err != nil {
		return nil, Summary{}, fmt.Errorf("leaps: %w", err)
	}
	return perApp, pooled, nil
}

// WriteRawLog serialises one or more per-process logs into the binary raw
// event-trace-log format, interleaving events in timestamp order.
func WriteRawLog(w io.Writer, logs ...*Log) error {
	return etl.WriteLogs(w, logs...)
}

// ParseRawLog parses a binary raw event-trace log, correlating stack-walk
// records with events, and returns the log of the process running the
// named application (the per-application slicing of the paper's testing
// phase). An empty app name is allowed when the file holds exactly one
// process.
func ParseRawLog(r io.Reader, app string) (*Log, error) {
	f, err := etl.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	log, err := f.SliceApp(app)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return log, nil
}

// ParseRawFile parses a binary raw event-trace log with explicit fault
// tolerance and returns the whole multi-process file, exposing recovery
// telemetry (skipped records, dropped stack walks) alongside the logs. In
// lenient mode corrupt records are skipped and reported in ErrorLog
// instead of rejecting the file.
func ParseRawFile(r io.Reader, opts ParseOpts) (*RawFile, error) {
	f, err := etl.ParseWith(r, opts)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return f, nil
}

// NewServer starts the online detection server used by leaps-serve: it
// loads the configured model bundles, restores spooled sessions, and
// returns a Server whose Handler serves the HTTP/JSON detection API.
// Callers own the listener; call Shutdown to drain and checkpoint.
func NewServer(config ServeConfig) (*Server, error) {
	s, err := serve.NewServer(config)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return s, nil
}

// NewAutopilot opens (or resumes, via its journal) the retraining
// controller: bind it to a Server with Bind, then Start. A controller
// restarted over the same state directory picks up any interrupted
// cycle exactly where the journal says it stopped.
func NewAutopilot(config AutopilotConfig) (*AutopilotController, error) {
	c, err := autopilot.New(config)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return c, nil
}

// OpenModelRegistry opens (creating on first use) the content-addressed
// model registry at dir — the store leaps-train publishes into and
// leaps-serve promotes from.
func OpenModelRegistry(dir string) (*ModelRegistry, error) {
	st, err := registry.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return st, nil
}

// LoadMonitor reads a model bundle like LoadDetector but degrades instead
// of failing when its statistical section is corrupt: the returned
// Monitor runs the bundled call-graph matcher and reports why via
// DegradedCause. A bundle whose call-graph section is unreadable is an
// error.
func LoadMonitor(r io.Reader) (*Monitor, error) {
	m, err := core.LoadMonitor(r)
	if err != nil {
		return nil, fmt.Errorf("leaps: %w", err)
	}
	return m, nil
}
