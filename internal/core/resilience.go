// Resilience layer: stage error wrapping and the degraded weights used by
// per-name budget retries. Stage-boundary context checks and fault
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

// degraded returns w cut to the k strongest join paths by combined weight
// (renormalised to sum 1). Cutting the path set shrinks both the postings
// index and the per-row kernel loop, which is what lets a name that blew
// its budget be retried cheaply. It reports false, and returns w itself,
// when k already covers every positively weighted path.
func (w weights) degraded(k int) (weights, bool) {
	if k <= 0 {
		k = DefaultDegradedPaths
	}
	nonzero := 0
	for p := range w.resem {
		if w.resem[p] > 0 || w.walk[p] > 0 {
			nonzero++
		}
	}
	if nonzero <= k {
		return w, false
	}
	type pathWeight struct {
		p int
		w float64
	}
	ranked := make([]pathWeight, len(w.resem))
	for p := range w.resem {
		ranked[p] = pathWeight{p: p, w: w.resem[p] + w.walk[p]}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].w != ranked[j].w {
			return ranked[i].w > ranked[j].w
		}
		return ranked[i].p < ranked[j].p
	})
	resem := make([]float64, len(w.resem))
	walk := make([]float64, len(w.walk))
	for _, r := range ranked[:k] {
		resem[r.p] = w.resem[r.p]
		walk[r.p] = w.walk[r.p]
	}
	return weights{normalize(resem), normalize(walk)}, true
}
