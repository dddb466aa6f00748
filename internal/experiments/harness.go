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
// variant sweeps and min-sim grids only redo the clustering. Every
// experiment runs on one path: a name is clustered by predict, every name
// by evaluateAll, and a variant's threshold is picked by best. Experiments
// that change the world, the training set or the expanded attributes run
// that same path on sub-harnesses (sweep, ExpansionAblation).
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
	return newHarness(world, opts, []string{dblp.TitleAttr})
}

// newHarness builds a harness whose engine leaves the attributes in skip
// unexpanded (Section 2.1); every other attribute value becomes a tuple.
func newHarness(world *dblp.World, opts Options, skip []string) (*Harness, error) {
	opts = opts.withDefaults()
	opts.World = world.Config
	engine, err := core.NewEngineCtx(opts.ctx(), world.DB, core.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  skip,
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

// subOptions returns the options a sub-harness inherits: thresholds, grid,
// training set, run context and name budget, but not this harness's
// observability, which reports on the main world only.
func (h *Harness) subOptions() Options {
	o := h.Opts
	o.Obs, o.Trace = nil, nil
	return o
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

// predict clusters one name's references under the weights of a
// supervision mode and opts, on the run context.
func (h *Harness) predict(name string, supervised bool, opts cluster.Options) (eval.Clustering, error) {
	refs, ok := h.refs[name]
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not an ambiguous name of this world", name)
	}
	m, err := h.matrix(name, supervised)
	if err != nil {
		return nil, err
	}
	res, err := cluster.Run(h.Opts.ctx(), m, opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: clustering %q: %w", name, err)
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

// evaluateAll clusters every ambiguous name once under the weights of a
// supervision mode and opts, and returns the predictions and their metrics
// against gold, in Table 1 order.
func (h *Harness) evaluateAll(supervised bool, opts cluster.Options) ([]eval.Clustering, []eval.Metrics, error) {
	names := h.World.AmbiguousNames()
	preds := make([]eval.Clustering, len(names))
	ms := make([]eval.Metrics, len(names))
	for i, name := range names {
		pred, err := h.predict(name, supervised, opts)
		if err != nil {
			return nil, nil, err
		}
		if ms[i], err = eval.Evaluate(pred, h.gold[name]); err != nil {
			return nil, nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		preds[i] = pred
	}
	return preds, ms, nil
}

// best evaluates a variant over every ambiguous name at each threshold it
// may use — the harness's min-sim, or every grid point when the variant
// tunes its threshold — and returns the average metrics of the threshold
// with the highest average accuracy (the first on ties), and that
// threshold.
func (h *Harness) best(v Variant) (eval.Metrics, float64, error) {
	grid := []float64{h.Opts.MinSim}
	if v.TuneMinSim {
		grid = h.Opts.MinSimGrid
	}
	best, bestMinSim := eval.Metrics{Accuracy: -1}, 0.0
	for _, minSim := range grid {
		_, ms, err := h.evaluateAll(v.Supervised, cluster.Options{Measure: v.Measure, MinSim: minSim})
		if err != nil {
			return eval.Metrics{}, 0, err
		}
		if avg := eval.Average(ms); avg.Accuracy > best.Accuracy {
			best, bestMinSim = avg, minSim
		}
	}
	return best, bestMinSim, nil
}
