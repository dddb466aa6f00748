// Resilience layer: stage error wrapping and the degraded engine view used
// by per-name budget retries. Stage-boundary context checks and fault
// points live in the stage primitive (stage.go); the panic-isolating worker
// pool is fault.ParallelFor. See DESIGN.md §10.

package core

import (
	"errors"
	"sort"
	"strings"

	"distinct/internal/fault"
)

// StageError wraps an error with the pipeline stage that observed it, so a
// cancellation or injected fault surfaces as "core: similarities: context
// canceled" and incident records can name the failing stage. Unwrap
// preserves errors.Is(err, context.Canceled/DeadlineExceeded).
type StageError struct {
	Stage string
	Err   error
}

func (e *StageError) Error() string { return "core: " + e.Stage + ": " + e.Err.Error() }
func (e *StageError) Unwrap() error { return e.Err }

// stageErr wraps err with the stage name (nil in, nil out). An error that
// already carries a StageError passes through unchanged, keeping the
// innermost stage — the one that actually observed the failure.
func stageErr(stage string, err error) error {
	if err == nil {
		return nil
	}
	var se *StageError
	if errors.As(err, &se) {
		return err
	}
	return &StageError{Stage: stage, Err: err}
}

// errStage extracts the stage name an error was wrapped with ("" when the
// error carries none).
func errStage(err error) string {
	var se *StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// incidentStage names the stage an incident's error belongs to: the
// innermost StageError when one is present; for an injected stage-boundary
// panic (which escapes before any stage wrapping) the firing point with its
// "core." prefix trimmed; "" otherwise.
func incidentStage(err error) string {
	if s := errStage(err); s != "" {
		return s
	}
	var pe *fault.PanicError
	if errors.As(err, &pe) {
		if ip, ok := pe.Value.(fault.InjectedPanic); ok {
			return strings.TrimPrefix(ip.Point, "core.")
		}
	}
	return ""
}

// DefaultDegradedPaths is how many of the strongest join paths a degraded
// per-name retry keeps (see BatchOptions.DegradedPaths).
const DefaultDegradedPaths = 4

// degraded returns a shallow engine view whose weights keep only the k
// strongest join paths by combined learned weight (renormalised to sum 1),
// sharing the database, extractor cache, and observability sinks with the
// parent. Cutting the path set shrinks both the postings index and the
// per-row kernel loop, which is what lets a name that blew its budget be
// retried cheaply. If k already covers every positively weighted path the
// receiver itself is returned.
func (e *Engine) degraded(k int) *Engine {
	if k <= 0 {
		k = DefaultDegradedPaths
	}
	nonzero := 0
	for p := range e.resemW {
		if e.resemW[p] > 0 || e.walkW[p] > 0 {
			nonzero++
		}
	}
	if nonzero <= k {
		return e
	}
	type pathWeight struct {
		p int
		w float64
	}
	ranked := make([]pathWeight, len(e.resemW))
	for p := range e.resemW {
		ranked[p] = pathWeight{p: p, w: e.resemW[p] + e.walkW[p]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].w != ranked[j].w {
			return ranked[i].w > ranked[j].w
		}
		return ranked[i].p < ranked[j].p
	})
	resem := make([]float64, len(e.resemW))
	walk := make([]float64, len(e.walkW))
	for _, r := range ranked[:k] {
		resem[r.p] = e.resemW[r.p]
		walk[r.p] = e.walkW[r.p]
	}
	de := *e
	de.resemW = normalize(resem)
	de.walkW = normalize(walk)
	return &de
}
