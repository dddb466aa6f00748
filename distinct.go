package distinct

import (
	"context"
	"io"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/eval"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/serve"
	"distinct/internal/svm"
	"distinct/internal/trainset"
)

// Relational substrate. These aliases re-export the in-memory relational
// engine so library users can define schemas and load data without touching
// internal packages.
type (
	// Attribute describes one column: Key marks the primary key, FK names
	// the referenced relation for foreign keys.
	Attribute = reldb.Attribute
	// RelationSchema is one relation's name and ordered attributes.
	RelationSchema = reldb.RelationSchema
	// Schema is a set of relations with resolved foreign keys.
	Schema = reldb.Schema
	// Database is an in-memory relational database instance.
	Database = reldb.Database
	// TupleID identifies a tuple within one Database.
	TupleID = reldb.TupleID
	// JoinPath is a chain of foreign-key traversals; similarities are
	// computed per join path.
	JoinPath = reldb.JoinPath
)

// InvalidTuple is returned by lookups that find nothing.
const InvalidTuple = reldb.InvalidTuple

// NewRelationSchema builds and validates a relation schema.
func NewRelationSchema(name string, attrs ...Attribute) (*RelationSchema, error) {
	return reldb.NewRelationSchema(name, attrs...)
}

// MustRelationSchema is NewRelationSchema that panics on error.
func MustRelationSchema(name string, attrs ...Attribute) *RelationSchema {
	return reldb.MustRelationSchema(name, attrs...)
}

// NewSchema builds and validates a schema from relation schemas.
func NewSchema(relations ...*RelationSchema) (*Schema, error) {
	return reldb.NewSchema(relations...)
}

// MustSchema is NewSchema that panics on error.
func MustSchema(relations ...*RelationSchema) *Schema {
	return reldb.MustSchema(relations...)
}

// NewDatabase creates an empty database over the schema.
func NewDatabase(schema *Schema) *Database { return reldb.NewDatabase(schema) }

// Measure selects how cluster-pair similarity is computed.
type Measure = cluster.Measure

// Cluster similarity measures. Combined is DISTINCT's composite measure;
// the others give the paper's Figure 4 variants and ablations.
const (
	Combined           = cluster.Combined
	ResemblanceOnly    = cluster.ResemOnly
	RandomWalkOnly     = cluster.WalkOnly
	CombinedArithmetic = cluster.CombinedArithmetic
	SingleLink         = cluster.SingleLink
	CompleteLink       = cluster.CompleteLink
)

// DefaultMinSim is the default clustering threshold (the analogue of the
// paper's min-sim = 0.0005 under this implementation's normalised weights).
const DefaultMinSim = core.DefaultMinSim

// TrainOptions configures the automatic training-set construction.
type TrainOptions = trainset.Options

// SVMOptions configures the linear SVM solver.
type SVMOptions = svm.Options

// TrainReport summarises a training run: set sizes, per-path weights,
// training accuracies and stage timings.
type TrainReport = core.TrainReport

// Config configures an Engine. RefRelation and RefAttr are required; they
// locate the references to disambiguate (RefAttr must be a foreign key to
// the relation keyed by the shared names). The remaining fields default to
// the paper's configuration.
type Config struct {
	// RefRelation and RefAttr locate the references, e.g. Publish.author.
	RefRelation, RefAttr string
	// SkipExpand lists "Relation.attr" free-text attributes to exclude from
	// attribute-value expansion (e.g. paper titles).
	SkipExpand []string
	// MaxPathLen caps join-path length (default 4).
	MaxPathLen int
	// Unsupervised disables SVM weight learning; all join paths then weigh
	// equally. The zero value (supervised) is the full DISTINCT.
	Unsupervised bool
	// Measure is the cluster similarity measure (default Combined).
	Measure Measure
	// MinSim is the clustering stop threshold (default DefaultMinSim); a
	// NaN or infinite one makes Open fail.
	MinSim float64
	// Train tunes the automatic training set (defaults follow the paper:
	// 1000 positive and 1000 negative pairs from rare names).
	Train TrainOptions
	// SVM tunes the solver (defaults: C=1, dual coordinate descent).
	SVM SVMOptions
	// Workers bounds the goroutines used for feature extraction, the
	// dominant cost (0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// Metrics, when non-nil, collects per-stage spans and pipeline
	// counters for every operation on the engine (see NewMetrics). Nil —
	// the default — records nothing and costs nothing.
	Metrics *Registry
	// Trace, when non-nil, records decision-level provenance (see
	// NewTrace): a span tree mirroring the pipeline stages, one event per
	// clustering merge, learned path weights, and sampled pair
	// explanations. Nil — the default — records nothing and costs one nil
	// check per stage.
	Trace *Trace
}

// Registry is the observability registry: named atomic counters, gauges,
// fixed-bucket histograms, and per-stage span aggregates. Hand one to
// Config.Metrics, then read Registry.Snapshot, dump it with
// Registry.WriteFile, or serve it live with ServeMetrics.
type Registry = obs.Registry

// NewMetrics returns an empty observability registry.
func NewMetrics() *Registry { return obs.NewRegistry() }

// Trace records a hierarchical trace of one run: a tree of timed spans (one
// per pipeline stage, one per name in a batch sweep) with typed attributes,
// plus structured events — one per clustering merge, one per learned path
// weight, and optionally one per sampled reference pair. Hand one to
// Config.Trace, run the engine, then export with Trace.WriteChromeJSON
// (chrome://tracing / Perfetto), Trace.WriteJSON (self-describing tree, the
// input of cmd/tracereport), or render it directly with trace.WriteReport.
type Trace = trace.Trace

// NewTrace returns an enabled trace. samplePairEvery > 0 additionally
// records an Explain-style per-path breakdown for every Nth reference pair
// in the similarity stage (deterministic striding, no RNG); 0 disables pair
// sampling while keeping spans and merge events.
func NewTrace(samplePairEvery int) *Trace {
	return trace.New(trace.Options{SamplePairEvery: samplePairEvery})
}

// MetricsServer is a running observability HTTP server (see ServeMetrics).
type MetricsServer = obs.Server

// ServeMetrics starts an HTTP server on addr exposing the registry: JSON
// snapshots at /metrics, expvar-compatible output at /debug/vars, and the
// standard net/http/pprof profiling endpoints. Close the returned server
// when done.
func ServeMetrics(addr string, reg *Registry) (*MetricsServer, error) {
	return obs.Serve(addr, reg)
}

// Engine is a ready-to-use DISTINCT instance bound to one database.
type Engine struct {
	inner *core.Engine
}

// Open prepares an engine over the database: it expands attribute values
// into tuples and enumerates the join paths. The input database is not
// modified. Call Train before Disambiguate for learned path weights;
// without Train the engine runs with uniform weights.
func Open(db *Database, cfg Config) (*Engine, error) {
	return OpenCtx(context.Background(), db, cfg)
}

// OpenCtx is Open under a context: the expand and enumerate stages observe
// cancellation at their boundaries and return the context's error wrapped
// with the stage name (errors.Is sees context.Canceled/DeadlineExceeded).
func OpenCtx(ctx context.Context, db *Database, cfg Config) (*Engine, error) {
	inner, err := core.NewEngineCtx(ctx, db, core.Config{
		RefRelation: cfg.RefRelation,
		RefAttr:     cfg.RefAttr,
		SkipExpand:  cfg.SkipExpand,
		MaxPathLen:  cfg.MaxPathLen,
		Supervised:  !cfg.Unsupervised,
		Measure:     cfg.Measure,
		MinSim:      cfg.MinSim,
		Train:       cfg.Train,
		SVM:         cfg.SVM,
		Workers:     cfg.Workers,
		Obs:         cfg.Metrics,
		Trace:       cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &Engine{inner: inner}, nil
}

// Train constructs the automatic training set, fits the two SVM models and
// installs learned join-path weights (unless the engine is unsupervised, in
// which case the report is informational and uniform weights remain).
func (e *Engine) Train() (*TrainReport, error) { return e.inner.TrainCtx(context.Background()) }

// TrainCtx is Train under a context: cancellation is observed at every
// training stage boundary, between feature-extraction items, and between
// SVM optimisation passes, returning the context's error wrapped with the
// stage that observed it.
func (e *Engine) TrainCtx(ctx context.Context) (*TrainReport, error) {
	return e.inner.TrainCtx(ctx)
}

// Disambiguate splits the references carrying name into groups, one group
// per inferred real object. The returned tuple IDs belong to the engine's
// expanded database, accessible via DB.
func (e *Engine) Disambiguate(name string) ([][]TupleID, error) {
	return e.inner.DisambiguateNameCtx(context.Background(), name)
}

// DisambiguateCtx is Disambiguate under a context: cancellation is observed
// between similarity rows, between clustering merges, and at every stage
// boundary, with latency bounded by one chunk of work. The returned error
// wraps context.Canceled / context.DeadlineExceeded with the stage name.
func (e *Engine) DisambiguateCtx(ctx context.Context, name string) ([][]TupleID, error) {
	return e.inner.DisambiguateNameCtx(ctx, name)
}

// DisambiguateRefs clusters an explicit set of references (expanded-DB IDs).
func (e *Engine) DisambiguateRefs(refs []TupleID) [][]TupleID {
	groups, err := e.inner.DisambiguateRefsCtx(context.Background(), refs)
	if err != nil {
		// A background run can fail only by a recovered worker panic
		// (*fault.PanicError, stack attached): re-raise it.
		panic(err)
	}
	return groups
}

// Refs returns the references carrying the name, in the engine's database.
func (e *Engine) Refs(name string) []TupleID { return e.inner.RefsForName(name) }

// DB returns the engine's attribute-expanded database; tuple IDs returned
// by Disambiguate refer to it.
func (e *Engine) DB() *Database { return e.inner.DB() }

// MapRef translates a tuple ID of the original database passed to Open into
// the engine's expanded database (InvalidTuple if unknown).
func (e *Engine) MapRef(id TupleID) TupleID { return e.inner.MapRef(id) }

// MapRefs translates a slice of original tuple IDs.
func (e *Engine) MapRefs(ids []TupleID) []TupleID { return e.inner.MapRefs(ids) }

// Paths returns the enumerated join paths, in the order Weights uses.
func (e *Engine) Paths() []JoinPath { return e.inner.Paths() }

// Weights returns the current per-path weights for the resemblance and
// random-walk measures (each non-negative, summing to one).
func (e *Engine) Weights() (resem, walk []float64) { return e.inner.Weights() }

// SetWeights installs explicit per-path weights (one per Paths entry, for
// the resemblance and walk measures respectively). Negative entries are
// clipped to zero and each vector is normalised to sum one. A NaN or
// infinite entry, or positive entries whose sum overflows float64, is an
// error that leaves the weights unchanged. Use this when the database is
// too small for automatic training and you know which join paths matter.
func (e *Engine) SetWeights(resem, walk []float64) error {
	return e.inner.SetWeights(resem, walk)
}

// NameGroups is the disambiguation outcome for one name in a batch pass.
type NameGroups = core.NameGroups

// BatchResult summarises a whole-database disambiguation pass, including
// the explicit partial-results contract: names that timed out, degraded, or
// panicked are recorded in Incidents — never dropped silently.
type BatchResult = core.BatchResult

// BatchOptions configures DisambiguateAllCtx: the minimum reference count,
// the per-name budget, and the degraded retry's path cap.
type BatchOptions = core.BatchOptions

// Incident records one name a batch sweep could not process normally:
// which stage failed, why (timeout / degraded / panic / error), and how
// long the name ran.
type Incident = core.Incident

// IncidentReason classifies a batch incident.
type IncidentReason = core.IncidentReason

// Batch incident reasons (see the core package for full semantics).
const (
	IncidentTimeout  = core.IncidentTimeout
	IncidentDegraded = core.IncidentDegraded
	IncidentPanic    = core.IncidentPanic
	IncidentError    = core.IncidentError
)

// DisambiguateAll runs DISTINCT over every name carrying at least minRefs
// references and reports the names whose references split into more than
// one group — the suspected homonyms in the whole database.
func (e *Engine) DisambiguateAll(minRefs int) (*BatchResult, error) {
	return e.inner.DisambiguateAllCtx(context.Background(), BatchOptions{MinRefs: minRefs})
}

// DisambiguateAllCtx is DisambiguateAll under a context and per-name
// budgets. A name that blows its BatchOptions.NameTimeout budget is retried
// once in a cheaper degraded mode (top-k join paths by learned weight) and,
// if still over budget, kept as one conservative group; every such name is
// recorded in BatchResult.Incidents. When ctx itself ends, the partial
// BatchResult covering the names completed so far is returned alongside the
// stage-wrapped context error.
func (e *Engine) DisambiguateAllCtx(ctx context.Context, opts BatchOptions) (*BatchResult, error) {
	return e.inner.DisambiguateAllCtx(ctx, opts)
}

// TuneResult reports a min-sim auto-tuning run.
type TuneResult = core.TuneResult

// TuneMinSim selects and installs the clustering threshold without labeled
// data, by synthetically merging pairs of rare names (each presumed to be
// one real object) into pseudo-ambiguous validation cases and sweeping the
// grid (nil = default grid) for the best average f-measure over up to
// maxCases cases.
func (e *Engine) TuneMinSim(grid []float64, maxCases int, seed int64) (*TuneResult, error) {
	return e.inner.TuneMinSim(grid, maxCases, seed)
}

// DisambiguateAuto clusters the name's references with a per-name
// threshold: the dendrogram is cut at its largest similarity collapse when
// a crisp gap exists, and at the engine's min-sim otherwise (an extension
// beyond the paper's fixed global threshold).
func (e *Engine) DisambiguateAuto(name string) ([][]TupleID, error) {
	return e.inner.DisambiguateNameAuto(name)
}

// Explanation breaks one pair's similarity down by join path (see Explain).
type Explanation = core.Explanation

// PathContribution is one join path's share of a pair's similarity.
type PathContribution = core.PathContribution

// Explain answers "why does the engine think these two references are (or
// are not) the same object?" with a per-path similarity breakdown,
// strongest contribution first. Render it with Explanation.Format(eng.DB().Schema).
func (e *Engine) Explain(r1, r2 TupleID) *Explanation { return e.inner.Explain(r1, r2) }

// Affinity returns the relational affinity between the full reference sets
// of two names (the composite cluster similarity between them). Record
// linkage uses it to check whether two differently written names denote
// one object: spellings of one person share collaborators and venues.
func (e *Engine) Affinity(a, b string) float64 { return e.inner.NameAffinity(a, b) }

// MergeStep is one step of a merge profile (see MergeProfile).
type MergeStep = core.MergeStep

// MergeProfile clusters the references fully (ignoring min-sim) and returns
// each merge's similarity, first merge first — the dendrogram profile used
// to choose min-sim by inspection: place the threshold where similarity
// collapses.
func (e *Engine) MergeProfile(refs []TupleID) []MergeStep {
	return e.inner.MergeProfile(refs)
}

// SetMinSim overrides the clustering threshold; MinSim reads it. A NaN or
// infinite threshold is an error and leaves the threshold as it was.
func (e *Engine) SetMinSim(v float64) error { return e.inner.SetMinSim(v) }

// MinSim returns the current clustering threshold.
func (e *Engine) MinSim() float64 { return e.inner.MinSim() }

// SetMeasure overrides the cluster similarity measure.
func (e *Engine) SetMeasure(m Measure) { e.inner.SetMeasure(m) }

// DisambiguateGuarded is Disambiguate under the full per-name resilience
// ladder — the serving-path entry point. A blown opts.NameTimeout budget
// triggers one degraded retry (top-k join paths) and then a conservative
// single group; a panic anywhere in the pipeline becomes an incident, never
// a crash. The returned Incident is nil on the clean path; a non-nil error
// means ctx itself ended or the name has no references.
func (e *Engine) DisambiguateGuarded(ctx context.Context, name string, opts BatchOptions) ([][]TupleID, *Incident, error) {
	return e.inner.DisambiguateNameGuarded(ctx, name, opts)
}

// Names lists the names carrying at least minRefs references, sorted — the
// batch sweep's work list and the name universe the serving API exposes.
func (e *Engine) Names(minRefs int) []string { return e.inner.NamesWithRefs(minRefs) }

// APIOptions configures the HTTP serving front end (see NewAPIServer).
type APIOptions = serve.Options

// APIServer is the HTTP serving front end: /v1/name/{name} and /v1/batch
// over the engine, with request coalescing, a version-keyed result cache,
// and admission control. See DESIGN.md §13.
type APIServer = serve.Server

// APIBackend adapts the engine for an APIServer; renderAttr names the
// reference attribute used to render tuple IDs in responses (e.g. the DBLP
// generator's "paper-key").
func (e *Engine) APIBackend(renderAttr string) serve.Backend {
	return serve.NewEngineBackend(e.inner, renderAttr)
}

// NewAPIServer builds the serving front end over opts.Backend (usually
// Engine.APIBackend). Mount Handler on ServeAPI, drain before exit.
func NewAPIServer(opts APIOptions) (*APIServer, error) { return serve.New(opts) }

// ServeAPI starts the hardened HTTP server stack on addr around the API
// server's handler (the /v1 endpoints plus /metrics and /debug/...).
func ServeAPI(addr string, s *APIServer) (*MetricsServer, error) {
	return obs.ServeHandler(addr, s.Handler())
}

// Model is a portable snapshot of trained join-path weights; save it after
// Train and load it into a future engine over the same schema.
type Model = core.Model

// ExportModel snapshots the engine's current weights.
func (e *Engine) ExportModel() *Model { return e.inner.ExportModel() }

// ApplyModel installs a saved model's weights; the model's join paths must
// match the engine's exactly, and its weights pass SetWeights' checks.
func (e *Engine) ApplyModel(m *Model) error { return e.inner.ApplyModel(m) }

// SaveModel writes the engine's current weights as JSON.
func (e *Engine) SaveModel(w io.Writer) error { return e.inner.SaveModel(w) }

// LoadModel reads a model written by SaveModel.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// Metrics are pairwise clustering scores (precision, recall, f-measure,
// accuracy), as defined in Section 5 of the paper.
type Metrics = eval.Metrics

// Clustering is a partition of references.
type Clustering = eval.Clustering

// Score evaluates a predicted grouping against a gold grouping using
// pairwise precision/recall/f-measure/accuracy.
func Score(pred, gold [][]TupleID) (Metrics, error) {
	return eval.Evaluate(eval.Clustering(pred), eval.Clustering(gold))
}
