// Guarded single-name disambiguation: the per-name resilience ladder —
// panic isolation, budget timeout, degraded retry, conservative fallback —
// shared by the batch sweep (batch.go) and the serving front end
// (internal/serve). See DESIGN.md §10 for the ladder, §13 for serving.

package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"distinct/internal/cluster"
	"distinct/internal/fault"
	"distinct/internal/reldb"
)

// attemptLadder runs one name's disambiguation under the resilience ladder:
//
//  1. a guarded attempt under the engine's weights and the per-name
//     budget — or, under opts.ForceDegraded (a serving-layer brownout),
//     directly under the degraded weights;
//  2. on a blown budget, one guarded retry under the degraded weights (top-k
//     join paths) and a fresh budget — unless the attempt was already
//     degraded;
//  3. on panic, error, or a second blown budget, the references are kept as
//     one conservative group.
//
// It returns the groups plus an Incident describing any deviation from the
// clean path (nil when clean; Elapsed covers the whole ladder). A non-nil
// error is returned only when the parent ctx itself ended — then
// groups and incident are nil and the caller owns the partial-result
// contract. Stage spans parent under ctx's span.
func (e *Engine) attemptLadder(ctx context.Context, name string, refs []reldb.TupleID, opts BatchOptions) (_ [][]reldb.TupleID, inc *Incident, _ error) {
	t0 := time.Now()
	defer func() {
		if inc != nil {
			inc.Elapsed = time.Since(t0)
		}
	}()
	// attempt runs one disambiguation under w (the engine's weights or
	// their degraded cut) and a fresh per-name budget, converting a panic
	// anywhere in the name's stages into a *fault.PanicError instead of
	// killing the caller.
	attempt := func(w weights) (groups [][]reldb.TupleID, err error) {
		nctx, cancel := ctx, context.CancelFunc(func() {})
		if opts.NameTimeout > 0 {
			nctx, cancel = context.WithTimeout(ctx, opts.NameTimeout)
		}
		defer cancel()
		err = fault.Guard(func() error {
			res, err := e.clustered(nctx, refs, w, cluster.StopMinSim)
			groups = groupRefs(refs, res.Clusters)
			return err
		})
		return groups, err
	}

	// A brownout-forced compute starts on the degraded weights: the
	// quality cut the over-budget retry would make, taken up front because
	// the server (not this name) is in trouble. The incident it reports
	// keeps the serving envelope honest (degraded: true, stage "brownout").
	w, cutFirst := e.w, false
	var forced *Incident
	if opts.ForceDegraded {
		if dw, ok := e.w.degraded(opts.DegradedPaths); ok {
			w, cutFirst = dw, true
			forced = &Incident{Name: name, Stage: "brownout",
				Reason: IncidentDegraded, Err: "server-forced degraded path"}
		}
	}

	groups, err := attempt(w)
	if err == nil {
		return groups, forced, nil
	}
	if ctx.Err() != nil {
		// The parent context ended: not a per-name incident.
		return nil, nil, err
	}
	stage := incidentStage(err)
	var pe *fault.PanicError
	switch {
	case errors.As(err, &pe):
		return singleGroup(refs), &Incident{
			Name: name, Stage: stage, Reason: IncidentPanic, Err: pe.Error()}, nil
	case errors.Is(err, context.DeadlineExceeded):
		// Per-name budget blown: retry once in degraded mode under a fresh
		// budget (when the path set can actually be cut). A forced-degraded
		// attempt was already on the cut path — retrying it would repeat
		// the same work.
		if dw, ok := e.w.degraded(opts.DegradedPaths); ok && !cutFirst {
			g2, derr := attempt(dw)
			if derr == nil {
				return g2, &Incident{
					Name: name, Stage: stage, Reason: IncidentDegraded, Err: err.Error()}, nil
			}
			if ctx.Err() != nil {
				return nil, nil, derr
			}
			if errors.As(derr, &pe) {
				return singleGroup(refs), &Incident{
					Name: name, Stage: incidentStage(derr), Reason: IncidentPanic, Err: pe.Error()}, nil
			}
			err, stage = derr, incidentStage(derr)
		}
		return singleGroup(refs), &Incident{
			Name: name, Stage: stage, Reason: IncidentTimeout, Err: err.Error()}, nil
	default:
		return singleGroup(refs), &Incident{
			Name: name, Stage: stage, Reason: IncidentError, Err: err.Error()}, nil
	}
}

// DisambiguateNameGuarded is the serving-path entry point:
// DisambiguateNameCtx under the full per-name resilience ladder. Unlike
// DisambiguateNameCtx — which surfaces panics and budget blowouts as errors
// — a guarded lookup always produces groups unless the parent ctx itself
// ended: a blown NameTimeout degrades (top-k paths) and then falls back to
// one conservative group, a panic is isolated into an incident, and the
// returned Incident (nil on the clean path, Elapsed stamped) tells the
// caller exactly what happened so it can be reported to the requester.
//
// Stage spans parent under ctx's span: the serving layer puts a per-request
// trace's name span there, so a tail-sampled request captures the engine's
// decisions for exactly that request (stages, merges, incidents) without
// the engine holding any global trace.
func (e *Engine) DisambiguateNameGuarded(ctx context.Context, name string, opts BatchOptions) ([][]reldb.TupleID, *Incident, error) {
	refs, err := e.named(name)
	if err != nil {
		return nil, nil, err
	}
	return e.attemptLadder(ctx, name, refs, opts)
}

// NamesWithRefs lists the names carrying at least minRefs references, in
// lexicographic order — the work list a batch sweep examines and the name
// universe the serving API exposes at /v1/names (load generators replay it).
// minRefs below 1 is treated as 1.
func (e *Engine) NamesWithRefs(minRefs int) []string {
	var names []string
	for _, nr := range e.namesWithRefs(max(minRefs, 1)) {
		names = append(names, nr.name)
	}
	sort.Strings(names)
	return names
}

// namedRefs is one name with the references carrying it.
type namedRefs struct {
	name string
	refs []reldb.TupleID // the database's own slice: read-only
}

// namesWithRefs returns every name carrying at least minRefs references,
// with those references, in the name relation's tuple order.
func (e *Engine) namesWithRefs(minRefs int) []namedRefs {
	rs := e.db.Schema.Relation(e.cfg.RefRelation)
	nameRel := e.db.Relation(rs.Attrs[rs.AttrIndex(e.cfg.RefAttr)].FK)
	ki := nameRel.Schema.KeyIndex()
	var out []namedRefs
	for _, id := range nameRel.TupleIDs() {
		name := e.db.Tuple(id).Vals[ki]
		if refs := e.refsOf(name); len(refs) >= minRefs {
			out = append(out, namedRefs{name: name, refs: refs})
		}
	}
	return out
}
