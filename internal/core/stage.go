// The stage primitive: every pipeline stage opens with begin and closes
// with end, which together carry the stage's cancellation check, fault
// point, obs stage span and trace span. See DESIGN.md §10.

package core

import (
	"context"

	"distinct/internal/fault"
	"distinct/internal/obs"
	"distinct/internal/obs/trace"
)

// stageID names one pipeline stage of the engine.
type stageID uint8

const (
	stageExpand stageID = iota
	stageEnumerate
	stageCompilePlans
	stageTrainset
	stageFeatures
	stageTrainSVM
	stageBatch
	stageSimilarities
	stageCluster
	numStages
)

// stageNames are the obs stage and trace span names.
var stageNames = [numStages]string{
	"expand", "enumerate", "compile_plans", "trainset", "features",
	"train_svm", "batch", "similarities", "cluster",
}

// stage is one open pipeline stage, returned by begin and closed by end.
type stage struct {
	id  stageID
	obs obs.Span
	sp  *trace.Span // nil when tracing is off
}

// span returns the span ctx carries, falling back to the engine trace's
// root (nil when tracing is off): the parent of stages opened under ctx.
func (e *Engine) span(ctx context.Context) *trace.Span {
	if sp := trace.SpanFromContext(ctx); sp != nil {
		return sp
	}
	return e.tr.Root()
}

// begin opens a stage. It observes cancellation and gives whatever fault
// registry travels in ctx its injection point ("core." + stage), then opens
// the obs stage and a trace span under ctx's span. The returned context
// carries the new span, so nested stages and prefetches parent under it
// without being handed it. On error nothing is opened. With observability,
// tracing and fault injection all off, a begin/end pair allocates nothing.
func (e *Engine) begin(ctx context.Context, id stageID, attrs ...trace.Attr) (stage, context.Context, error) {
	if err := ctx.Err(); err != nil {
		return stage{}, ctx, &StageError{Stage: stageNames[id], Err: err}
	}
	if f := fault.From(ctx); f != nil {
		if err := f.Fire(ctx, "core."+stageNames[id]); err != nil {
			return stage{}, ctx, stageErr(stageNames[id], err)
		}
	}
	sp := e.span(ctx).Start(stageNames[id], attrs...)
	return stage{id: id, obs: e.stages[id].Start(), sp: sp}, trace.ContextWithSpan(ctx, sp), nil
}

// end closes the stage's obs span, crediting items, and its trace span —
// on every path, so a failed run is counted and never left open — and
// returns err wrapped with the stage name (nil stays nil).
func (st stage) end(items int, err error) error {
	st.obs.End(items)
	st.sp.End()
	return stageErr(stageNames[st.id], err)
}
