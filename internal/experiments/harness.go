// Package experiments regenerates every table and figure of the DISTINCT
// paper's evaluation (Section 5) on a generated world:
//
//   - Table 1 — the ambiguous-name dataset (#authors, #references per name),
//   - Table 2 — per-name precision/recall/f-measure of DISTINCT,
//   - Figure 4 — accuracy and f-measure of six variants (combined /
//     set-resemblance-only / random-walk-only × supervised / unsupervised),
//   - Figure 5 — the grouping of the hardest name's references with
//     affiliations and DISTINCT's mistakes, and
//   - the Section 5 timing figure (training-set construction + SVM = 62.1 s
//     on full DBLP), measured at this reproduction's scale.
//
// The harness caches the expensive artifacts — the trained engine and each
// name's combined similarity matrix per weighting (learned or uniform) — so
// variant sweeps and min-sim grids only redo the clustering.
package experiments

import (
	"context"
	"fmt"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/core"
	"distinct/internal/dblp"
	"distinct/internal/eval"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

// Options configures a harness run.
type Options struct {
	// World configures the generated dataset; zero value means
	// dblp.DefaultConfig (the Table 1 profile).
	World dblp.Config
	// MinSim is DISTINCT's clustering threshold. Zero means
	// core.DefaultMinSim.
	MinSim float64
	// MinSimGrid is the sweep grid used to tune the non-DISTINCT variants
	// of Figure 4, as the paper does ("for each approach except DISTINCT,
	// we choose the min-sim that maximizes average accuracy"). Zero value
	// means DefaultMinSimGrid.
	MinSimGrid []float64
	// TrainPositive/TrainNegative size the automatic training set; zero
	// means the paper's 1000 + 1000.
	TrainPositive, TrainNegative int
	// Seed drives training-set sampling.
	Seed int64
	// Obs, when non-nil, receives the engine's per-stage spans and
	// pipeline counters (the -metrics / -obs flags of cmd/experiments).
	Obs *obs.Registry
	// Trace, when non-nil, records the engine's span tree and decision
	// events (the -trace / -tracetree flags of cmd/experiments).
	Trace *trace.Trace
	// Ctx, when non-nil, bounds every pipeline call the harness makes
	// (engine construction, training, per-name similarity matrices); nil
	// means context.Background(). cmd/experiments cancels it on SIGINT and
	// bounds it with -timeout.
	Ctx context.Context
	// NameTimeout, when positive, is the budget on each similarity matrix
	// the harness computes (one per name and weighting) — the dominant
	// per-name cost here (the -name-timeout flag of cmd/experiments).
	NameTimeout time.Duration
}

// ctx returns the run context (Background when none was configured).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultMinSimGrid spans four orders of magnitude around the useful range.
func DefaultMinSimGrid() []float64 {
	return []float64{0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
}

func (o Options) withDefaults() Options {
	if o.World.Communities == 0 {
		o.World = dblp.DefaultConfig()
	}
	if o.MinSim == 0 {
		o.MinSim = core.DefaultMinSim
	}
	if len(o.MinSimGrid) == 0 {
		o.MinSimGrid = DefaultMinSimGrid()
	}
	if o.TrainPositive == 0 {
		o.TrainPositive = 1000
	}
	if o.TrainNegative == 0 {
		o.TrainNegative = 1000
	}
	return o
}

// Harness owns a generated world and the engines and caches needed to
// regenerate the paper's experiments.
type Harness struct {
	Opts  Options
	World *dblp.World

	engine      *core.Engine // shared expanded DB + neighborhoods
	trainReport *core.TrainReport

	// cached per ambiguous name
	refs map[string][]reldb.TupleID // expanded-DB reference IDs
	gold map[string]eval.Clustering // expanded-DB gold clusters
	sims map[simKey]cluster.Matrix  // filled by matrix
}

// simKey names one memoized similarity matrix: a name under the learned
// (supervised) or the uniform weights.
type simKey struct {
	name       string
	supervised bool
}

// NewHarness generates the world and builds the engine (untrained).
func NewHarness(opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	world, err := dblp.Generate(opts.World)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating world: %w", err)
	}
	return NewHarnessWorld(world, opts)
}

// NewHarnessWorld builds a harness over an existing world (e.g. one loaded
// from disk, or shared across benchmark runs). opts.World is ignored.
func NewHarnessWorld(world *dblp.World, opts Options) (*Harness, error) {
	opts = opts.withDefaults()
	opts.World = world.Config
	engine, err := core.NewEngineCtx(opts.ctx(), world.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Supervised:  true,
		Measure:     cluster.Combined,
		MinSim:      opts.MinSim,
		Train: trainset.Options{
			NumPositive: opts.TrainPositive,
			NumNegative: opts.TrainNegative,
			Exclude:     world.AmbiguousNames(),
			Seed:        opts.Seed,
		},
		Obs:   opts.Obs,
		Trace: opts.Trace,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building engine: %w", err)
	}
	h := &Harness{
		Opts:   opts,
		World:  world,
		engine: engine,
		refs:   make(map[string][]reldb.TupleID),
		gold:   make(map[string]eval.Clustering),
		sims:   make(map[simKey]cluster.Matrix),
	}
	for _, name := range world.AmbiguousNames() {
		h.refs[name] = engine.MapRefs(world.Refs(name))
		var g eval.Clustering
		for _, c := range world.GoldClusters(name) {
			g = append(g, engine.MapRefs(c))
		}
		h.gold[name] = g
	}
	return h, nil
}

// Engine exposes the underlying engine (e.g. for weight inspection).
func (h *Harness) Engine() *core.Engine { return h.engine }

// Train runs supervised training once and caches the report.
func (h *Harness) Train() (*core.TrainReport, error) {
	if h.trainReport != nil {
		return h.trainReport, nil
	}
	rep, err := h.engine.TrainCtx(h.Opts.ctx())
	if err != nil {
		return nil, err
	}
	h.trainReport = rep
	return rep, nil
}

// matrix returns a name's combined similarity matrix under the weights of
// a supervision mode (variantWeights), computed on first use and kept for
// the harness's lifetime: the variant sweeps (Figure 4, the ablation,
// min-sim grids) cut the same matrix under several cluster measures and
// thresholds, so every pass after the first is clustering alone. On the
// default world the ten names' matrices take about 0.67 MiB per mode.
// Opts.NameTimeout, when set, budgets the computation; Opts.Ctx cancels it.
// A failed or timed-out computation is not kept.
func (h *Harness) matrix(name string, supervised bool) (cluster.Matrix, error) {
	key := simKey{name, supervised}
	if m, ok := h.sims[key]; ok {
		return m, nil
	}
	resemW, walkW, err := h.variantWeights(supervised)
	if err != nil {
		return cluster.Matrix{}, err
	}
	ctx := h.Opts.ctx()
	if h.Opts.NameTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.Opts.NameTimeout)
		defer cancel()
	}
	m, err := h.engine.SimilaritiesCtx(ctx, h.refs[name], resemW, walkW)
	if err != nil {
		return cluster.Matrix{}, fmt.Errorf("experiments: similarities of %q: %w", name, err)
	}
	h.sims[key] = m
	return m, nil
}

// uniformWeights returns 1/n per path.
func (h *Harness) uniformWeights() []float64 {
	n := len(h.engine.Paths())
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	return w
}

// variantWeights returns the (resem, walk) weights of a supervision mode.
// Supervised weights require Train to have run.
func (h *Harness) variantWeights(supervised bool) (resemW, walkW []float64, err error) {
	if !supervised {
		u := h.uniformWeights()
		return u, u, nil
	}
	rep, err := h.Train()
	if err != nil {
		return nil, nil, err
	}
	return rep.ResemWeights, rep.WalkWeights, nil
}

// clusterName clusters one name's references under the weights of a
// supervision mode, a measure and a threshold, returning its metrics
// against gold.
func (h *Harness) clusterName(name string, supervised bool, measure cluster.Measure, minSim float64) (eval.Metrics, error) {
	pred, err := h.clusterNamePred(name, supervised, measure, minSim)
	if err != nil {
		return eval.Metrics{}, err
	}
	return eval.Evaluate(pred, h.gold[name])
}

// clusterNamePred returns the predicted clustering itself.
func (h *Harness) clusterNamePred(name string, supervised bool, measure cluster.Measure, minSim float64) (eval.Clustering, error) {
	refs, ok := h.refs[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown name %q", name)
	}
	m, err := h.matrix(name, supervised)
	if err != nil {
		return nil, err
	}
	return h.clusterRows(refs, m, cluster.Options{Measure: measure, MinSim: minSim})
}

// clusterRows clusters a matrix whose rows are refs under opts, on the run
// context, and maps the rows back to references.
func (h *Harness) clusterRows(refs []reldb.TupleID, m cluster.Matrix, opts cluster.Options) (eval.Clustering, error) {
	res, err := cluster.Run(h.Opts.ctx(), m, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: clustering: %w", err)
	}
	pred := make(eval.Clustering, len(res.Clusters))
	for i, c := range res.Clusters {
		pred[i] = make([]reldb.TupleID, len(c))
		for j, x := range c {
			pred[i][j] = refs[x]
		}
	}
	return pred, nil
}

// evaluateAll scores every ambiguous name and returns per-name metrics in
// Table 1 order plus their average.
func (h *Harness) evaluateAll(supervised bool, measure cluster.Measure, minSim float64) ([]eval.Metrics, eval.Metrics, error) {
	names := h.World.AmbiguousNames()
	ms := make([]eval.Metrics, len(names))
	for i, name := range names {
		m, err := h.clusterName(name, supervised, measure, minSim)
		if err != nil {
			return nil, eval.Metrics{}, fmt.Errorf("experiments: %s: %w", name, err)
		}
		ms[i] = m
	}
	return ms, eval.Average(ms), nil
}
