// Resilience layer: stage error wrapping and the degraded weights used by
// per-name budget retries. Stage-boundary context checks and fault
// points live in the stage primitive (stage.go); the panic-isolating worker
// pool is fault.ParallelFor. See DESIGN.md §10.

package core

import (
	"cmp"
	"errors"
	"slices"
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
	// Strongest first; the stable sort keeps tied paths in path order.
	ranked := make([]int, len(w.resem))
	for p := range ranked {
		ranked[p] = p
	}
	slices.SortStableFunc(ranked, func(a, b int) int {
		return cmp.Compare(w.resem[b]+w.walk[b], w.resem[a]+w.walk[a])
	})
	resem := make([]float64, len(w.resem))
	walk := make([]float64, len(w.walk))
	for _, p := range ranked[:k] {
		resem[p] = w.resem[p]
		walk[p] = w.walk[p]
	}
	return weights{normalize(resem), normalize(walk)}, true
}
