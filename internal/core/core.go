// Package core implements the DISTINCT methodology end to end (Yin, Han,
// Yu; ICDE 2007): given a relational database and a relation containing
// references that share names, it
//
//  1. expands attribute values into tuples (Section 2.1),
//  2. enumerates the join paths from the reference relation,
//  3. optionally learns one weight per join path for each of the two
//     similarity measures, using an SVM over an automatically constructed
//     training set (Section 3),
//  4. computes pairwise similarities between same-named references —
//     weighted set resemblance and weighted random walk probability — and
//  5. groups the references with agglomerative clustering under the
//     composite measure (Section 4).
//
// The package is the engine; the public façade for library users is the
// repository root package distinct.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
	"distinct/internal/prop"
	"distinct/internal/reldb"
	"distinct/internal/sim"
	"distinct/internal/svm"
	"distinct/internal/trainset"
)

// Config tells the engine where the references live and how to process
// them. Zero-valued fields take the documented defaults.
type Config struct {
	// RefRelation and RefAttr locate the references to disambiguate, e.g.
	// Publish.author: RefAttr must be a foreign key to the relation keyed by
	// the shared names.
	RefRelation, RefAttr string

	// SkipExpand lists "Relation.attr" attributes excluded from
	// attribute-value expansion (free text such as paper titles).
	SkipExpand []string

	// MaxPathLen caps join-path length. Default 4.
	MaxPathLen int

	// Supervised selects SVM-learned join-path weights (the full DISTINCT);
	// when false every path gets the same weight, giving the unsupervised
	// variants of the paper's Figure 4.
	Supervised bool

	// Measure selects the cluster similarity measure. Default
	// cluster.Combined (DISTINCT's composite measure).
	Measure cluster.Measure

	// MinSim is the clustering stop threshold. The paper runs DISTINCT with
	// min-sim 0.0005 on its unnormalised learned weights; this engine
	// normalises path weights to sum 1, which shifts the similarity scale,
	// so the equivalent default here is DefaultMinSim. NewEngineCtx
	// rejects a NaN or infinite one.
	MinSim float64

	// Train configures automatic training-set construction.
	Train trainset.Options

	// SVM configures the linear SVM solver.
	SVM svm.Options

	// Workers bounds the goroutines of each parallel stage on its own:
	// plan compile, neighborhood prefetch, training features, the two
	// SVMs, a name's similarity rows and a sweep's names. 0 means
	// GOMAXPROCS; 1 forces sequential execution. Stages do not share the
	// bound: DisambiguateAllCtx runs up to Workers names at once, and each
	// scores its similarity rows on up to Workers more goroutines.
	Workers int

	// Obs, when non-nil, receives per-stage spans (wall time, items,
	// allocations) and pipeline counters for the whole run: expansion,
	// path enumeration, training, similarity matrices, batch
	// disambiguation, and clustering. Nil (the default) costs nothing on
	// any hot path; see internal/obs and DESIGN.md §8 for the taxonomy.
	Obs *obs.Registry

	// Trace, when non-nil, records decision-level provenance under the obs
	// aggregates: every pipeline stage becomes a parented span in the
	// trace's tree, the clusterer emits one event per merge and a final cut
	// event, training emits one path_weight event per learned join-path
	// weight, and — when the trace was built with SamplePairEvery — the
	// similarity stage attaches Explain-style per-path breakdowns for a
	// deterministic sample of reference pairs. Nil (the default) costs a
	// nil check per stage; see internal/obs/trace and DESIGN.md §9.
	Trace *trace.Trace
}

// DefaultMinSim is the default clustering threshold. It plays the role of
// the paper's min-sim = 0.0005: the absolute value differs because this
// engine normalises the learned path weights to sum 1 (the paper's raw SVM
// weights are larger), which rescales all similarities by a constant.
const DefaultMinSim = 0.01

func (c Config) withDefaults() Config {
	if c.MaxPathLen <= 0 {
		c.MaxPathLen = 4
	}
	if c.MinSim == 0 {
		c.MinSim = DefaultMinSim
	}
	return c
}

// Timings records how long each pipeline stage took; the experiments
// harness reports them next to the paper's 62.1 s figure.
type Timings struct {
	Expand       time.Duration
	Enumerate    time.Duration
	CompilePlans time.Duration
	TrainSet     time.Duration
	Features     time.Duration
	TrainSVM     time.Duration
	TotalTrain   time.Duration
}

// TrainReport summarises a training run.
type TrainReport struct {
	NumPaths      int
	NumPositive   int
	NumNegative   int
	NumRareNames  int
	ResemAccuracy float64 // training accuracy of the resemblance model
	WalkAccuracy  float64
	ResemWeights  []float64 // per-path, clipped and normalised
	WalkWeights   []float64
	Timings       Timings
}

// Engine is a ready-to-use DISTINCT instance over one database.
type Engine struct {
	cfg   Config
	db    *reldb.Database // attribute-expanded
	idMap map[reldb.TupleID]reldb.TupleID
	paths []reldb.JoinPath
	ext   *sim.Extractor

	w weights // the engine's own weights, each vector non-negative and summing to 1

	timings Timings
	obs     *obs.Registry         // nil when observability is off
	stages  [numStages]*obs.Stage // pre-resolved stage handles (nil when off)
	tr      *trace.Trace          // nil when tracing is off
}

// NewEngineCtx expands the database, enumerates join paths, compiles them
// into CSR plans, and installs uniform path weights (call TrainCtx to
// replace them with learned weights). The input database is not modified.
// Each stage observes cancellation at its boundary and returns the
// context's error wrapped with the stage name.
func NewEngineCtx(ctx context.Context, db *reldb.Database, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := checkMinSim(cfg.MinSim); err != nil {
		return nil, err
	}
	if err := cfg.Measure.Validate(); err != nil {
		return nil, err
	}
	rs := db.Schema.Relation(cfg.RefRelation)
	if rs == nil {
		return nil, fmt.Errorf("core: unknown reference relation %q", cfg.RefRelation)
	}
	ai := rs.AttrIndex(cfg.RefAttr)
	if ai < 0 {
		return nil, fmt.Errorf("core: relation %q has no attribute %q", cfg.RefRelation, cfg.RefAttr)
	}
	if rs.Attrs[ai].FK == "" {
		return nil, fmt.Errorf("core: reference attribute %s.%s must be a foreign key to the name relation", cfg.RefRelation, cfg.RefAttr)
	}
	e := &Engine{cfg: cfg, obs: cfg.Obs, tr: cfg.Trace}
	for id, name := range stageNames {
		e.stages[id] = cfg.Obs.Stage(name)
	}

	t0 := time.Now()
	st, _, err := e.begin(ctx, stageExpand)
	if err != nil {
		return nil, err
	}
	e.db, e.idMap, err = reldb.ExpandAttributes(db, cfg.SkipExpand...)
	if err != nil {
		return nil, st.end(0, err)
	}
	st.sp.SetAttrs(trace.Int("tuples", int64(e.db.NumTuples())))
	st.end(e.db.NumTuples(), nil)
	e.timings.Expand = time.Since(t0)

	t0 = time.Now()
	if st, _, err = e.begin(ctx, stageEnumerate); err != nil {
		return nil, err
	}
	e.paths = reldb.EnumerateJoinPaths(e.db.Schema, cfg.RefRelation, reldb.EnumerateOptions{
		MaxLen: cfg.MaxPathLen,
		ExcludeFirst: []reldb.Step{
			{Rel: cfg.RefRelation, Attr: cfg.RefAttr, Forward: true},
		},
	})
	st.sp.SetAttrs(trace.Int("paths", int64(len(e.paths))))
	st.end(len(e.paths), nil)
	e.timings.Enumerate = time.Since(t0)
	if len(e.paths) == 0 {
		return nil, fmt.Errorf("core: no join paths from %s within length %d", cfg.RefRelation, cfg.MaxPathLen)
	}

	e.obs.Gauge("engine.paths").Set(float64(len(e.paths)))

	// Compile the join paths into CSR plans in their own stage span, the
	// extractor's snapshot of the expanded database. Distinct hops compile
	// in parallel under Config.Workers; the plan is shared read-only by all
	// workers.
	t0 = time.Now()
	st, sctx, err := e.begin(ctx, stageCompilePlans)
	if err != nil {
		return nil, err
	}
	plan := prop.CompileTrieCtx(sctx, e.db, prop.NewTrie(e.paths), cfg.Workers)
	e.ext = sim.New(plan, cfg.Obs)
	hops, edges := plan.Stats()
	st.sp.SetAttrs(trace.Int("hops", int64(hops)), trace.Int("edges", int64(edges)))
	st.end(hops, nil)
	e.timings.CompilePlans = time.Since(t0)
	e.obs.Counter("prop.csr_hops").Add(int64(hops))
	e.obs.Counter("prop.csr_edges").Add(int64(edges))
	// Wall time is a gauge like the other duration-valued observations:
	// counters are reserved for exactly reproducible item counts.
	e.obs.Gauge("prop.csr_compile_ms").Set(float64(e.timings.CompilePlans) / float64(time.Millisecond))

	e.SetUniformWeights()
	return e, nil
}

// DB returns the attribute-expanded database the engine works on.
func (e *Engine) DB() *reldb.Database { return e.db }

// Paths returns the enumerated join paths in weight order.
func (e *Engine) Paths() []reldb.JoinPath { return e.paths }

// Weights returns the current per-path weights (resemblance, walk).
func (e *Engine) Weights() (resem, walk []float64) {
	return append([]float64(nil), e.w.resem...), append([]float64(nil), e.w.walk...)
}

// weights are per-join-path weights of the two similarity measures. Entry
// points pass them down by value: the engine's own, a degraded cut of them
// (weights.degraded), or a caller's (SimilaritiesCtx).
type weights struct {
	resem, walk []float64
}

// used reports whether join path p carries a nonzero resemblance or walk
// weight; any other path adds nothing to any similarity.
func (w weights) used(p int) bool { return w.resem[p] != 0 || w.walk[p] != 0 }

// Timings returns stage durations observed so far.
func (e *Engine) Timings() Timings { return e.timings }

// MapRef translates a tuple ID of the original (pre-expansion) database
// into the engine's database. IDs already belonging to the engine's
// database are the caller's responsibility; unknown IDs map to themselves
// only if present in the map, otherwise InvalidTuple.
func (e *Engine) MapRef(id reldb.TupleID) reldb.TupleID {
	if nid, ok := e.idMap[id]; ok {
		return nid
	}
	return reldb.InvalidTuple
}

// MapRefs translates a slice of original tuple IDs.
func (e *Engine) MapRefs(ids []reldb.TupleID) []reldb.TupleID {
	out := make([]reldb.TupleID, len(ids))
	for i, id := range ids {
		out[i] = e.MapRef(id)
	}
	return out
}

// SetUniformWeights installs equal weights on every join path; this is the
// "without supervised learning" configuration of Figure 4.
func (e *Engine) SetUniformWeights() {
	n := len(e.paths)
	e.w = weights{normalize(make([]float64, n)), normalize(make([]float64, n))}
}

// SetWeights installs explicit per-path weights (clipped at zero and
// normalised to sum 1). Mostly useful for tests and ablations. A vector of
// the wrong length, with a NaN or infinite entry, or whose positive
// entries sum past the largest float64 is an error, and the weights stay
// as they were: normalize would divide by an infinite sum and install all
// zeros, which splits every name into singletons.
func (e *Engine) SetWeights(resem, walk []float64) error {
	if len(resem) != len(e.paths) || len(walk) != len(e.paths) {
		return fmt.Errorf("core: weight vectors must have %d entries", len(e.paths))
	}
	for _, w := range [][]float64{resem, walk} {
		sum := 0.0
		for p, v := range w {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: weight %v on path %d is not finite", v, p)
			}
			sum += max(v, 0)
		}
		if math.IsInf(sum, 0) {
			return fmt.Errorf("core: positive weights sum past the float64 range")
		}
	}
	e.w = weights{normalize(resem), normalize(walk)}
	return nil
}

// normalize clips negatives to zero and scales to sum 1 (uniform if all
// weights vanish).
func normalize(w []float64) []float64 {
	out := make([]float64, len(w))
	sum := 0.0
	for i, v := range w {
		if v > 0 {
			out[i] = v
			sum += v
		}
	}
	if sum == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// TrainCtx builds the automatic training set, learns SVM models for both
// similarity measures (the two at once when the engine has two workers),
// and installs the learned path weights. If the engine's configuration is
// unsupervised, TrainCtx still reports the would-be models but leaves
// uniform weights in place. Cancellation is observed at the trainset /
// features / train_svm stage boundaries, between feature extraction items,
// and between SVM optimisation passes, and returns the context's error
// wrapped with the stage name.
func (e *Engine) TrainCtx(ctx context.Context) (*TrainReport, error) {
	total := time.Now()
	t0 := total
	st, _, err := e.begin(ctx, stageTrainset)
	if err != nil {
		return nil, err
	}
	ts, err := trainset.Build(e.db, e.cfg.RefRelation, e.cfg.RefAttr, e.cfg.Train)
	if err != nil {
		return nil, st.end(0, err)
	}
	st.sp.SetAttrs(
		trace.Int("pairs", int64(len(ts.Pairs))),
		trace.Int("positive", int64(ts.NumPositive)),
		trace.Int("negative", int64(ts.NumNegative)))
	st.end(len(ts.Pairs), nil)
	e.obs.Counter("trainset.positive").Add(int64(ts.NumPositive))
	e.obs.Counter("trainset.negative").Add(int64(ts.NumNegative))
	e.timings.TrainSet = time.Since(t0)

	t0 = time.Now()
	st, sctx, err := e.begin(ctx, stageFeatures, trace.Int("pairs", int64(len(ts.Pairs))))
	if err != nil {
		return nil, err
	}
	refs := make([]reldb.TupleID, 0, 2*len(ts.Pairs))
	for _, p := range ts.Pairs {
		refs = append(refs, p.R1, p.R2)
	}
	nbs, err := e.ext.NeighborhoodsCtx(sctx, refs, e.cfg.Workers)
	if err != nil {
		return nil, st.end(0, stageErr("prefetch", err))
	}
	resemEx := make([]svm.Example, len(ts.Pairs))
	walkEx := make([]svm.Example, len(ts.Pairs))
	err = fault.ParallelFor(sctx, len(ts.Pairs), e.cfg.Workers, func(i int) error {
		p := ts.Pairs[i]
		resem, walk := e.ext.Features(nbs[2*i], nbs[2*i+1])
		resemEx[i] = svm.Example{X: resem, Y: p.Label}
		walkEx[i] = svm.Example{X: walk, Y: p.Label}
		return nil
	})
	if err != nil {
		return nil, st.end(0, err)
	}
	st.end(len(ts.Pairs), nil)
	e.timings.Features = time.Since(t0)

	// Per-path similarities span orders of magnitude; scale each feature to
	// [0,1] for training, then fold the scale factors back into the weights
	// so they apply to raw similarities at clustering time.
	t0 = time.Now()
	st, sctx, err = e.begin(ctx, stageTrainSVM, trace.Int("paths", int64(len(e.paths))))
	if err != nil {
		return nil, err
	}
	resemScaler := svm.FitScaler(resemEx)
	walkScaler := svm.FitScaler(walkEx)
	resemScaled := resemScaler.Transform(resemEx)
	walkScaled := walkScaler.Transform(walkEx)
	// The two models are independent: train them as two items. When both
	// fail, the resemblance error is the one reported, whatever the worker
	// count or the order they failed in.
	var (
		scaled = [2][]svm.Example{resemScaled, walkScaled}
		models [2]*svm.Model
		errs   [2]error
	)
	err = fault.ParallelFor(sctx, 2, e.cfg.Workers, func(i int) error {
		models[i], errs[i] = svm.TrainDCDCtx(sctx, scaled[i], e.cfg.SVM)
		return errs[i]
	})
	if errs[0] != nil {
		return nil, st.end(0, fmt.Errorf("resemblance SVM: %w", errs[0]))
	}
	if errs[1] != nil {
		return nil, st.end(0, fmt.Errorf("walk SVM: %w", errs[1]))
	}
	if err != nil {
		return nil, st.end(0, err)
	}
	resemModel, walkModel := models[0], models[1]
	e.timings.TrainSVM = time.Since(t0)
	e.timings.TotalTrain = time.Since(total)

	rep := &TrainReport{
		NumPaths:      len(e.paths),
		NumPositive:   ts.NumPositive,
		NumNegative:   ts.NumNegative,
		NumRareNames:  len(ts.RareNames),
		ResemAccuracy: svm.Accuracy(resemModel, resemScaled),
		WalkAccuracy:  svm.Accuracy(walkModel, walkScaled),
		ResemWeights:  normalize(resemScaler.FoldWeights(resemModel.PositiveWeights())),
		WalkWeights:   normalize(walkScaler.FoldWeights(walkModel.PositiveWeights())),
		Timings:       e.timings,
	}
	e.obs.Gauge("svm.resem_accuracy").Set(rep.ResemAccuracy)
	e.obs.Gauge("svm.walk_accuracy").Set(rep.WalkAccuracy)
	if st.sp != nil {
		// One event per learned path weight; the run report renders these
		// as the join-path weight table.
		for p := range e.paths {
			st.sp.Event("path_weight",
				trace.String("path", e.paths[p].String()),
				trace.Float("resem_w", rep.ResemWeights[p]),
				trace.Float("walk_w", rep.WalkWeights[p]))
		}
		st.sp.SetAttrs(
			trace.Float("resem_accuracy", rep.ResemAccuracy),
			trace.Float("walk_accuracy", rep.WalkAccuracy),
			trace.Bool("supervised", e.cfg.Supervised))
	}
	st.end(2*len(ts.Pairs), nil)
	if e.cfg.Supervised {
		e.w = weights{rep.ResemWeights, rep.WalkWeights}
	}
	return rep, nil
}

// RefsForName returns the references carrying the given name, in the
// engine's (expanded) database.
func (e *Engine) RefsForName(name string) []reldb.TupleID {
	return append([]reldb.TupleID(nil), e.refsOf(name)...)
}

// NumRefs returns how many references carry the given name, without
// copying them.
func (e *Engine) NumRefs(name string) int { return len(e.refsOf(name)) }

// refsOf returns the references carrying name: the foreign-key index's own
// slice, read-only.
func (e *Engine) refsOf(name string) []reldb.TupleID {
	return e.db.Referencing(e.cfg.RefRelation, e.cfg.RefAttr, name)
}

// Similarities computes the pairwise combined similarities among refs under
// the engine's current weights: the cell of pair (i, j), i < j, holds the
// weighted set resemblance and the weighted directed walk probabilities
// from i to j and back.
func (e *Engine) Similarities(refs []reldb.TupleID) cluster.Matrix {
	m, err := e.similarities(context.Background(), refs, e.w, nil)
	fault.Rethrow(err)
	return m
}

// SimilaritiesCtx is Similarities under a context and explicit per-path
// weights, used exactly as given: no clipping, no renormalisation, and the
// engine's own weights are left alone. Each vector needs one entry per
// join path (Paths), none negative or NaN. The experiments harness scores
// one name under learned and under uniform weights this way.
func (e *Engine) SimilaritiesCtx(ctx context.Context, refs []reldb.TupleID, resemW, walkW []float64) (cluster.Matrix, error) {
	for _, v := range [][]float64{resemW, walkW} {
		if len(v) != len(e.paths) {
			return cluster.Matrix{}, fmt.Errorf("core: weight vectors must have %d entries", len(e.paths))
		}
		for p, x := range v {
			if !(x >= 0) {
				return cluster.Matrix{}, fmt.Errorf("core: weight %v on path %d is negative or NaN", x, p)
			}
		}
	}
	return e.similarities(ctx, refs, weights{resemW, walkW}, nil)
}

// similarities is Similarities under a context and weights w, observed
// between pairwise rows, filling a prefix of buf as the triangle when it
// is large enough; buf must be all zeros, as every triangle scored hands
// back to its pool is. When the stage span's trace was built with
// SamplePairEvery, every Nth pair (by triangular pair index — deterministic,
// no RNG) gets a "pair" event with its Explain-style per-path breakdown
// attached to the span.
func (e *Engine) similarities(ctx context.Context, refs []reldb.TupleID, w weights, buf []cluster.Cell) (cluster.Matrix, error) {
	n := len(refs)
	pairs := n * (n - 1) / 2
	st, ctx, err := e.begin(ctx, stageSimilarities,
		trace.Int("refs", int64(n)), trace.Int("pairs", int64(pairs)))
	if err != nil {
		return cluster.Matrix{}, err
	}
	if cap(buf) < pairs {
		buf = make([]cluster.Cell, pairs)
	}
	m := cluster.Matrix{N: n, Cells: buf[:pairs]}
	nbs, err := e.ext.NeighborhoodsCtx(ctx, refs, e.cfg.Workers)
	if err != nil {
		return cluster.Matrix{}, st.end(0, stageErr("prefetch", err))
	}
	// One index per block over every weighted path, built before the
	// row pass, so the rows below keep one fan-out and one fault point
	// per row.
	ix := e.ext.IndexBlock(nbs, w.used)
	defer e.ext.PutBlockIndex(ix)
	// sim.kernel_visits prices the rows below per shared tuple, which
	// sim.pairs_scored, one count per (pair, path) result, cannot see;
	// sim.index_postings prices the index itself.
	var visits, postings int
	for p := range e.paths {
		if w.used(p) {
			visits += ix.Visits(p)
			postings += ix.NumPostings(p)
		}
	}
	e.obs.Counter("sim.kernel_visits").Add(int64(visits))
	e.obs.Counter("sim.index_postings").Add(int64(postings))
	// Resolved once per stage: the per-row injection point below costs
	// one nil check per row when fault injection is off.
	freg := fault.From(ctx)
	scored := e.obs.Counter("sim.pairs_scored")
	err = fault.ParallelFor(ctx, n, e.cfg.Workers, func(i int) error {
		if freg != nil {
			if err := freg.Fire(ctx, "core.similarities.row"); err != nil {
				return err
			}
		}
		s := e.ext.BatchScratch()
		defer e.ext.PutBatchScratch(s)
		// Row i's cells, pairs (i, j>i), are a stretch of the triangle no
		// other row worker touches.
		row := m.Row(i)
		var rowScored int
		// Per path, the later partners sharing a neighbor tuple with i;
		// contributions accumulate into the row in ascending path order —
		// the same order (and therefore the same floats) as the per-pair
		// loop. A partner sharing nothing would add an exact zero to a
		// cell that is never -0, which leaves it unchanged, so it is
		// skipped.
		for p := range e.paths {
			if !w.used(p) {
				continue
			}
			rw, ww := w.resem[p], w.walk[p]
			js, out := ix.Row(s, p, i)
			rowScored += len(js)
			for k, j := range js {
				c := &row[int(j)-i-1]
				c.R += rw * out[k].Resem
				c.WAB += ww * out[k].WalkAB
				c.WBA += ww * out[k].WalkBA
			}
		}
		scored.Add(int64(rowScored))
		return nil
	})
	if err != nil {
		return cluster.Matrix{}, st.end(0, err)
	}
	if every := st.sp.Trace().SamplePairEvery(); every > 0 {
		e.samplePairs(st.sp, refs, nbs, m, every, w)
	}
	return m, st.end(pairs, nil)
}

// samplePairs attaches "pair" events with Explain-style per-path breakdowns
// for every sampleEvery-th pair (by triangular pair index — a pure function
// of (i, j, n), so the sample is identical whatever the worker count) to
// the similarities stage span, weighted by w; nbs[i] holds refs[i]'s
// neighborhoods. The sampled pairs' per-path values are rescored one pair
// at a time (sim.Extractor.Pair), which runs the block kernel on a
// two-member block: the sample is sparse, so the cost is negligible next
// to the batched fill, and the values are identical. The serial (i, j)
// walk emits events already in the order the old per-worker collection had
// to sort into.
func (e *Engine) samplePairs(tsp *trace.Span, refs []reldb.TupleID, nbs []*prop.Neighborhoods, m cluster.Matrix, sampleEvery int, w weights) {
	n := len(refs)
	var events []trace.Event
	var trips []sim.Trip
	k := 0 // the triangular index of pair (i, j), its cell in m
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j, k = j+1, k+1 {
			if k%sampleEvery != 0 {
				continue
			}
			c := m.Cells[k]
			var breakdown []byte
			trips = e.ext.Pair(nbs[i], nbs[j], trips)
			for p, t := range trips {
				rw, ww := w.resem[p], w.walk[p]
				if rw == 0 && ww == 0 {
					continue
				}
				if t != (sim.Trip{}) {
					if len(breakdown) > 0 {
						breakdown = append(breakdown, " | "...)
					}
					breakdown = fmt.Appendf(breakdown, "%s: resem=%g walk=%g",
						e.paths[p].String(), rw*t.Resem, ww*(t.WalkAB+t.WalkBA)/2)
				}
			}
			events = append(events, trace.Event{Name: "pair", Attrs: []trace.Attr{
				trace.Int("i", int64(i)), trace.Int("j", int64(j)),
				trace.Int("ref_i", int64(refs[i])), trace.Int("ref_j", int64(refs[j])),
				trace.Float("resem", c.R),
				trace.Float("walk_ij", c.WAB), trace.Float("walk_ji", c.WBA),
				trace.String("paths", string(breakdown)),
			}})
		}
	}
	if len(events) > 0 {
		tsp.EventAll(events)
	}
}

// groupRefs maps clusters of row indexes back to reference IDs.
func groupRefs(refs []reldb.TupleID, idx [][]int) [][]reldb.TupleID {
	out := make([][]reldb.TupleID, len(idx))
	for i, c := range idx {
		out[i] = make([]reldb.TupleID, len(c))
		for j, x := range c {
			out[i][j] = refs[x]
		}
	}
	return out
}

// DisambiguateRefsCtx clusters the given references (expanded-database
// IDs) and returns groups of reference IDs, one group per inferred real
// object. Stage spans parent under ctx's span (the engine trace's root when
// ctx carries none). Cancellation (and any injected fault) surfaces as an
// error wrapped with the stage that observed it.
func (e *Engine) DisambiguateRefsCtx(ctx context.Context, refs []reldb.TupleID) ([][]reldb.TupleID, error) {
	if len(refs) == 0 {
		return nil, nil
	}
	res, err := e.clustered(ctx, refs, e.w, cluster.StopMinSim)
	if err != nil {
		return nil, err
	}
	return groupRefs(refs, res.Clusters), nil
}

// triangles recycles the pair triangles of scored, which never leave it;
// a sweep of the paper-scale world would otherwise allocate 30 MB of them.
// Every triangle in the pool is all zeros. One too small for a block is
// dropped for the block's fresh one, so the pool settles on the largest
// triangles in use.
var triangles = sync.Pool{New: func() any { return new([]cluster.Cell) }}

// scored computes refs' similarities under w into a pooled triangle, in the
// similarities stage, hands the triangle to use under ctx, and recycles it
// once use returns: use must not keep it. The triangle goes back cleared,
// so a triangle recycled while still in use reads as zeros, not as another
// block's similarities. Every entry point that scores a block goes through
// here. A failed scoring, or a panic in use, drops the triangle instead of
// recycling it.
func (e *Engine) scored(ctx context.Context, refs []reldb.TupleID, w weights, use func(cluster.Matrix) error) error {
	buf := triangles.Get().(*[]cluster.Cell)
	m, err := e.similarities(ctx, refs, w, *buf)
	if err != nil {
		return err
	}
	err = use(m)
	clear(m.Cells)
	*buf = m.Cells
	triangles.Put(buf)
	return err
}

// clusterStage runs cluster.Run over m under stop and the engine's measure,
// threshold and registry, in a "cluster" stage opened under ctx's span:
// cancellation is observed between merge iterations, and the clusterer
// emits its merge and cut events on the stage span.
func (e *Engine) clusterStage(ctx context.Context, m cluster.Matrix, stop cluster.Stop) (cluster.Result, error) {
	st, ctx, err := e.begin(ctx, stageCluster, trace.Int("refs", int64(m.N)))
	if err != nil {
		return cluster.Result{}, err
	}
	res, err := cluster.Run(ctx, m, cluster.Options{
		Measure: e.cfg.Measure, MinSim: e.cfg.MinSim, Stop: stop, Obs: e.obs, Span: st.sp,
	})
	if err != nil {
		return cluster.Result{}, st.end(0, err)
	}
	st.sp.SetAttrs(trace.Int("clusters", int64(len(res.Clusters))))
	return res, st.end(m.N, nil)
}

// clustered scores refs under w and clusters them under stop: a
// similarities stage and a sibling cluster stage over one pooled triangle.
func (e *Engine) clustered(ctx context.Context, refs []reldb.TupleID, w weights, stop cluster.Stop) (res cluster.Result, err error) {
	err = e.scored(ctx, refs, w, func(m cluster.Matrix) error {
		res, err = e.clusterStage(ctx, m, stop)
		return err
	})
	return res, err
}

// named returns the references carrying name — the database's own slice,
// read-only — or an error when there are none.
func (e *Engine) named(name string) ([]reldb.TupleID, error) {
	refs := e.refsOf(name)
	if len(refs) == 0 {
		return nil, fmt.Errorf("core: no references named %q", name)
	}
	return refs, nil
}

// DisambiguateNameCtx clusters every reference carrying the name.
func (e *Engine) DisambiguateNameCtx(ctx context.Context, name string) ([][]reldb.TupleID, error) {
	refs, err := e.named(name)
	if err != nil {
		return nil, err
	}
	return e.DisambiguateRefsCtx(ctx, refs)
}
