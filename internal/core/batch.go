package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/eval"
	"distinct/internal/fault"
	"distinct/internal/obs/trace"
	"distinct/internal/reldb"
	"distinct/internal/trainset"
)

// NameGroups is the disambiguation outcome for one name.
type NameGroups struct {
	Name   string
	Groups [][]reldb.TupleID
}

// IncidentReason classifies why a name landed in BatchResult.Incidents.
type IncidentReason string

const (
	// IncidentTimeout: the name blew its per-name budget and could not be
	// completed by the degraded retry either; its references were kept as
	// one conservative group.
	IncidentTimeout IncidentReason = "timeout"
	// IncidentDegraded: the name blew its budget once but completed within
	// a fresh budget in degraded mode (top-k join paths by learned weight).
	// Its groups are real output — just computed under the reduced path set.
	IncidentDegraded IncidentReason = "degraded"
	// IncidentPanic: disambiguating the name panicked; the panic was
	// recovered (stack captured in Err) and the references kept as one
	// conservative group. The process never dies from one bad block.
	IncidentPanic IncidentReason = "panic"
	// IncidentError: a non-cancellation error (e.g. an injected fault)
	// failed the name; its references were kept as one conservative group.
	IncidentError IncidentReason = "error"
)

// Incident records one name the batch sweep could not process normally.
// Nothing is ever dropped silently: a name either disambiguates cleanly,
// or appears here with the stage that failed, why, and how long it ran.
type Incident struct {
	Name    string
	Stage   string // pipeline stage that observed the failure ("" if unknown)
	Reason  IncidentReason
	Err     string // underlying error text
	Elapsed time.Duration
}

// BatchResult summarises a whole-database disambiguation pass.
//
// Partial-results contract: on a clean run Incidents is empty and
// NamesExamined counts every eligible name. When per-name budgets fire,
// every over-budget name still appears — degraded or as a conservative
// single group — with an Incidents entry. When the parent context ends
// mid-batch, DisambiguateAllCtx returns the error alongside a BatchResult
// covering exactly the names that completed before the cut.
type BatchResult struct {
	// NamesExamined counts the names (with at least minRefs references)
	// whose disambiguation completed — all of them on a clean run, fewer
	// when the parent context ended mid-batch.
	NamesExamined int
	// Split lists the names whose references were split into more than one
	// group — the suspected homonyms — sorted by group count descending,
	// then by name.
	Split []NameGroups
	// Incidents lists the names that timed out, degraded, panicked, or
	// failed, in work-list order.
	Incidents []Incident
}

// BatchOptions configures DisambiguateAllCtx.
type BatchOptions struct {
	// MinRefs is the minimum reference count for a name to be examined;
	// below 2 it is treated as 2 (a single reference cannot split).
	MinRefs int
	// NameTimeout, when positive, is the per-name budget. A name that blows
	// it is retried once in degraded mode under a fresh budget, and if
	// still over budget is recorded as an incident with its references kept
	// as one group. Zero means no per-name budget (the parent context still
	// applies).
	NameTimeout time.Duration
	// DegradedPaths is how many of the strongest join paths the degraded
	// retry keeps; 0 means DefaultDegradedPaths.
	DegradedPaths int
	// ForceDegraded runs the FIRST attempt on the degraded (top-k path)
	// view instead of reserving it for the over-budget retry — the serving
	// layer's brownout ladder sets it under sustained overload so every
	// compute sheds quality before the server sheds load. A successful
	// forced attempt carries an IncidentDegraded incident with stage
	// "brownout" so callers (and clients) can tell a server-forced
	// degradation from a budget-driven one. When the engine has no paths to
	// cut the attempt runs clean and no incident is reported.
	ForceDegraded bool
}

// DisambiguateAllCtx runs DISTINCT over every name with at least
// opts.MinRefs references — the "clean the whole database" operation a
// downstream user wants — under per-name budgets (see BatchOptions and the
// BatchResult partial-results contract). Names whose references all
// collapse into one group are counted but not returned; names that split
// are reported with their groups. Cancellation of ctx is observed between
// names and between chunks inside each name's stages; the returned error is
// wrapped with the stage that observed it, and the partial BatchResult is
// still returned.
func (e *Engine) DisambiguateAllCtx(ctx context.Context, opts BatchOptions) (*BatchResult, error) {
	// Collect the work list, then prefetch every needed neighborhood once;
	// after that every read of the extractor's store is a hit, and names
	// can be clustered concurrently. Jobs read the database's own reference
	// slices; nothing below writes them.
	jobs := e.namesWithRefs(max(opts.MinRefs, 2))
	var allRefs []reldb.TupleID
	for _, j := range jobs {
		allRefs = append(allRefs, j.refs...)
	}
	// The sweep-wide prefetch is not part of the batch stage: its span is a
	// sibling of "batch", under ctx's span.
	if _, err := e.ext.NeighborhoodsCtx(trace.ContextWithSpan(ctx, e.span(ctx)), allRefs, e.cfg.Workers); err != nil {
		return nil, stageErr("prefetch", err)
	}

	// One "batch" span with one child span per name. Per-name spans are
	// created from worker goroutines, so their ids and sibling order are
	// scheduling-dependent; each is uniquely named "name:<shared name>",
	// which is what the golden trace test sorts on.
	st, ctx, err := e.begin(ctx, stageBatch, trace.Int("names", int64(len(jobs))))
	if err != nil {
		return nil, err
	}
	// Per-name latency lands in a histogram; the clock reads are guarded so
	// a disabled registry costs nothing per name.
	latency := e.obs.Histogram("batch.name_seconds", nil)
	results := make([][][]reldb.TupleID, len(jobs))
	incidents := make([]*Incident, len(jobs))
	// done[i] flips only after results[i]/incidents[i] are final; the
	// exactly-once index ownership of fault.ParallelFor plus its WaitGroup give
	// the happens-before edge, so no extra locking is needed.
	done := make([]bool, len(jobs))

	batchErr := fault.ParallelFor(ctx, len(jobs), e.cfg.Workers, func(i int) error {
		name, refs := jobs[i].name, jobs[i].refs
		nsp := st.sp.Start(trace.NameSpanPrefix+name, trace.Int("refs", int64(len(refs))))
		t0 := time.Now()
		groups, inc, err := e.attemptLadder(trace.ContextWithSpan(ctx, nsp), name, refs, opts)
		if err != nil {
			// The parent context ended: not a per-name incident. Stop the
			// batch; the caller gets the partial result plus the error.
			nsp.End()
			return err
		}
		results[i] = groups
		if inc != nil {
			incidents[i] = inc
			nsp.Event("incident",
				trace.String("reason", string(inc.Reason)),
				trace.String("stage", inc.Stage),
				trace.String("err", inc.Err))
		}
		done[i] = true
		if latency != nil {
			latency.ObserveDuration(time.Since(t0))
		}
		nsp.SetAttrs(trace.Int("groups", int64(len(groups))))
		nsp.End()
		return nil
	})

	completed := 0
	for _, d := range done {
		if d {
			completed++
		}
	}
	batchErr = st.end(completed, batchErr)

	res := &BatchResult{NamesExamined: completed}
	for i, j := range jobs {
		if !done[i] {
			continue
		}
		if incidents[i] != nil {
			res.Incidents = append(res.Incidents, *incidents[i])
		}
		if len(results[i]) > 1 {
			res.Split = append(res.Split, NameGroups{Name: j.name, Groups: results[i]})
		}
	}
	e.obs.Counter("batch.names_examined").Add(int64(res.NamesExamined))
	e.obs.Counter("batch.names_split").Add(int64(len(res.Split)))
	// Incident counters appear only when incidents happen, so a clean run's
	// counter set stays bit-identical to the pre-resilience goldens.
	if len(res.Incidents) > 0 {
		e.obs.Counter("batch.incidents").Add(int64(len(res.Incidents)))
		for _, inc := range res.Incidents {
			e.obs.Counter("batch.incident_" + string(inc.Reason)).Inc()
		}
	}
	sort.Slice(res.Split, func(i, j int) bool {
		if len(res.Split[i].Groups) != len(res.Split[j].Groups) {
			return len(res.Split[i].Groups) > len(res.Split[j].Groups)
		}
		return res.Split[i].Name < res.Split[j].Name
	})
	return res, batchErr
}

// singleGroup is the conservative fallback for a name the batch could not
// disambiguate: all its references in one group — never listed as split,
// never dropped.
func singleGroup(refs []reldb.TupleID) [][]reldb.TupleID {
	return [][]reldb.TupleID{append([]reldb.TupleID(nil), refs...)}
}

// TuneResult reports a min-sim auto-tuning run.
type TuneResult struct {
	// MinSim is the best threshold found; F1 its average f-measure.
	MinSim float64
	F1     float64
	// Cases is the number of synthetic validation cases used.
	Cases int
	// Grid and F1ByGrid give the full sweep, aligned by index.
	Grid     []float64
	F1ByGrid []float64
}

// TuneMinSim selects the clustering threshold without any labeled data, by
// extending the paper's rare-name trick from training to validation: pairs
// of rare names (each presumed to denote one real object) are synthetically
// merged into pseudo-ambiguous names whose gold clustering is known — all
// references of rare name A form one cluster, those of rare name B the
// other. The threshold that best separates the synthetic cases on average
// is returned and installed on the engine.
//
// maxCases bounds the number of synthetic cases (rare-name pairs); grid is
// the thresholds to sweep (nil means the package default used by the
// experiments harness). Train's rarity options and exclusions apply, so
// evaluation names never leak into tuning.
//
// Each case is agglomerated once: the merge sequence is recorded as a
// dendrogram (cluster.StopDendrogram, in the case's cluster stage over its
// pooled triangle) and every grid point's partition is derived from it
// (cluster.Options.From) by a prefix cut, falling back to a direct run only when the cut is not
// prefix-consistent (cluster.dendrogram_fallbacks counts those). Scores
// come from eval.FromCounts over arithmetically derived pair counts, so
// the result is bit-identical to evaluating each grid point's clustering
// directly.
func (e *Engine) TuneMinSim(grid []float64, maxCases int, seed int64) (*TuneResult, error) {
	if len(grid) == 0 {
		grid = []float64{0.0001, 0.0002, 0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2}
	}
	for _, ms := range grid {
		if err := checkMinSim(ms); err != nil {
			return nil, err
		}
	}
	if maxCases <= 0 {
		maxCases = 50
	}
	rare, err := trainset.RareNames(e.db, e.cfg.RefRelation, e.cfg.RefAttr, e.cfg.Train)
	if err != nil {
		return nil, err
	}
	var usable []string
	for _, name := range rare {
		if e.NumRefs(name) >= 2 {
			usable = append(usable, name)
		}
	}
	if len(usable) < 2 {
		return nil, fmt.Errorf("core: need at least two rare names with 2+ references to tune min-sim, have %d", len(usable))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(usable), func(i, j int) { usable[i], usable[j] = usable[j], usable[i] })
	nCases := len(usable) / 2
	if nCases > maxCases {
		nCases = maxCases
	}

	sums := make([]float64, len(grid))
	ctx := context.Background()
	for c := 0; c < nCases; c++ {
		ra, rb := e.refsOf(usable[2*c]), e.refsOf(usable[2*c+1])
		refs := append(append([]reldb.TupleID(nil), ra...), rb...)
		na, nb := len(ra), len(rb)
		goldPairs := na*(na-1)/2 + nb*(nb-1)/2
		totalPairs := len(refs) * (len(refs) - 1) / 2
		fault.Rethrow(e.scored(ctx, refs, e.w, func(m cluster.Matrix) error {
			// One agglomeration per case: record the dendrogram, then
			// derive each grid point's partition by a prefix cut (direct
			// rerun only on a prefix-consistency violation, counted by the
			// cluster package).
			rec, err := e.clusterStage(ctx, m, cluster.StopDendrogram)
			fault.Rethrow(err)
			opts := cluster.Options{Measure: e.cfg.Measure, From: rec.Dendrogram, Obs: e.obs}
			for gi, ms := range grid {
				opts.MinSim = ms
				res, err := cluster.Run(ctx, m, opts)
				fault.Rethrow(err)
				// The gold clusters are the index ranges [0,na) and [na,n),
				// so the pairwise confusion counts follow arithmetically
				// from each predicted cluster's split across them — no
				// membership maps, no pair loop. eval.FromCounts keeps the
				// score bit-identical to eval.Evaluate over the
				// materialised clusterings.
				tp, predPairs := 0, 0
				for _, cl := range res.Clusters {
					cntA := 0
					for _, x := range cl {
						if x < na {
							cntA++
						}
					}
					cntB := len(cl) - cntA
					tp += cntA*(cntA-1)/2 + cntB*(cntB-1)/2
					predPairs += len(cl) * (len(cl) - 1) / 2
				}
				met := eval.FromCounts(tp, predPairs-tp, goldPairs-tp,
					totalPairs-predPairs-goldPairs+tp)
				sums[gi] += met.F1
			}
			return nil
		}))
	}

	res := &TuneResult{Cases: nCases, Grid: grid, F1ByGrid: make([]float64, len(grid))}
	best := -1.0
	for gi := range grid {
		f := sums[gi] / float64(nCases)
		res.F1ByGrid[gi] = f
		if f > best {
			best = f
			res.MinSim = grid[gi]
			res.F1 = f
		}
	}
	e.cfg.MinSim = res.MinSim
	return res, nil
}

// DisambiguateRefsAuto clusters the references with a per-name threshold:
// each name's dendrogram is cut at its largest similarity collapse
// (cluster.StopGap) when a crisp gap exists, and at the engine's configured
// min-sim otherwise — an extension beyond the paper's fixed global
// threshold.
func (e *Engine) DisambiguateRefsAuto(refs []reldb.TupleID) [][]reldb.TupleID {
	if len(refs) == 0 {
		return nil
	}
	res, err := e.clustered(context.Background(), refs, e.w, cluster.StopGap)
	fault.Rethrow(err)
	return groupRefs(refs, res.Clusters)
}

// DisambiguateNameAuto is DisambiguateRefsAuto over every reference
// carrying the name.
func (e *Engine) DisambiguateNameAuto(name string) ([][]reldb.TupleID, error) {
	refs, err := e.named(name)
	if err != nil {
		return nil, err
	}
	return e.DisambiguateRefsAuto(refs), nil
}

// MergeStep is one step of a merge profile: the similarity at which two
// clusters of the given sizes merged.
type MergeStep struct {
	Sim          float64
	SizeA, SizeB int
}

// MergeProfile clusters the references all the way down to one cluster
// (ignoring min-sim) and returns the similarity of every merge, first merge
// first. The profile is the practical way to choose min-sim by hand: the
// threshold belongs in the gap where the similarity collapses between
// "same object" merges and "different object" merges.
func (e *Engine) MergeProfile(refs []reldb.TupleID) []MergeStep {
	if len(refs) < 2 {
		return nil
	}
	res, err := e.clustered(context.Background(), refs, e.w, cluster.StopDendrogram)
	fault.Rethrow(err)
	steps := make([]MergeStep, len(res.Dendrogram.Merges))
	for i, mg := range res.Dendrogram.Merges {
		steps[i] = MergeStep{Sim: mg.Sim, SizeA: int(mg.SizeA), SizeB: int(mg.SizeB)}
	}
	return steps
}

// NameAffinity returns the relational affinity between two names: the
// composite cluster similarity (geometric mean of average resemblance and
// collective walk probability) between the two names' full reference sets,
// under the engine's current weights. Record linkage uses it to verify
// that two similarly written names really denote one object — two
// spellings of one person share collaborators and venues; two people who
// merely have similar names do not.
func (e *Engine) NameAffinity(a, b string) float64 {
	ra, rb := e.refsOf(a), e.refsOf(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	// The affinity is an average over cross pairs, so an evenly strided
	// sample of each side estimates it without the quadratic blow-up on
	// very common names (a 1000-reference "James Smith" would otherwise
	// cost half a million pair computations per candidate).
	ra, rb = strideSample(ra, affinitySampleCap), strideSample(rb, affinitySampleCap)
	refs := append(append([]reldb.TupleID(nil), ra...), rb...)
	na := len(ra)
	var sumResem, walkAB, walkBA float64
	fault.Rethrow(e.scored(context.Background(), refs, e.w, func(m cluster.Matrix) error {
		for i := 0; i < na; i++ {
			for _, c := range m.Row(i)[na-i-1:] {
				sumResem += c.R
				walkAB += c.WAB
				walkBA += c.WBA
			}
		}
		return nil
	}))
	nb := float64(len(rb))
	avgResem := sumResem / (float64(na) * nb)
	collWalk := (walkAB/float64(na) + walkBA/nb) / 2
	return math.Sqrt(avgResem * collWalk)
}

// affinitySampleCap bounds the per-name references NameAffinity compares.
const affinitySampleCap = 48

// strideSample returns up to max elements of refs at an even stride,
// preserving order; deterministic, so affinities are reproducible.
func strideSample(refs []reldb.TupleID, max int) []reldb.TupleID {
	if len(refs) <= max {
		return refs
	}
	out := make([]reldb.TupleID, max)
	for i := 0; i < max; i++ {
		out[i] = refs[i*len(refs)/max]
	}
	return out
}

// SetMinSim overrides the clustering threshold; a NaN or infinite one is an
// error and changes nothing.
func (e *Engine) SetMinSim(v float64) error {
	if err := checkMinSim(v); err != nil {
		return err
	}
	e.cfg.MinSim = v
	return nil
}

// checkMinSim rejects a NaN or infinite threshold: no similarity reaches
// NaN or +Inf, and every one reaches -Inf.
func checkMinSim(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("core: min-sim %v is not finite", v)
	}
	return nil
}

// MinSim returns the current clustering threshold.
func (e *Engine) MinSim() float64 { return e.cfg.MinSim }

// SetMeasure overrides the cluster similarity measure.
func (e *Engine) SetMeasure(m cluster.Measure) { e.cfg.Measure = m }
