// Package serve is the online request path: an HTTP/JSON API over the
// disambiguation engine with request coalescing (duplicate in-flight names
// share one computation), a byte-bounded result cache keyed on the database
// version (inserts invalidate naturally), and admission control (bounded
// concurrency + bounded queue, 429/503 with Retry-After on overload).
// See DESIGN.md §13 for the architecture and SLO methodology.
package serve

import (
	"context"
	"sort"
	"time"

	"distinct/internal/core"
	"distinct/internal/reldb"
)

// Backend is what the server needs from the engine. It is an interface so
// serving-layer tests (coalescing races, admission overload, version-skew
// regressions) can drive a deterministic stub instead of a trained engine.
//
// Implementations must be safe for concurrent use: the server calls
// Disambiguate from many flights at once.
type Backend interface {
	// Disambiguate splits the name's references into rendered groups under
	// the per-name resilience ladder: opts.NameTimeout over budget means one
	// degraded retry, then a conservative single group; a panic anywhere
	// becomes an incident, never a crash. The returned incident is nil on
	// the clean path. A non-nil error means the request context itself
	// ended, or the name has no references.
	Disambiguate(ctx context.Context, name string, opts core.BatchOptions) (groups [][]string, inc *core.Incident, err error)
	// NumRefs returns how many references carry the name (0 = unknown name).
	NumRefs(name string) int
	// Names lists the names with at least minRefs references, sorted.
	Names(minRefs int) []string
	// Version is the database's mutation counter; every cache and flight
	// key embeds it so a mutation invalidates both naturally.
	Version() int64
}

// Mutator is the optional mutation extension of Backend: a backend whose
// version counter can be bumped synthetically. Options.AllowBump mounts it
// at POST /debug/bump so overload drills (loadgen's insert-while-serving
// mode, chaos tests) can outdate every version-keyed cache on demand.
type Mutator interface {
	// Bump records a synthetic mutation and returns the new version.
	Bump() int64
}

// EngineBackend adapts a trained core engine to the Backend interface,
// rendering each reference through renderAttr (e.g. dblp's "paper-key").
// Keys inside each group are sorted so responses are deterministic.
type EngineBackend struct {
	eng        *core.Engine
	renderAttr string
}

// NewEngineBackend wraps eng; renderAttr names the reference attribute used
// to render tuple IDs in responses.
func NewEngineBackend(eng *core.Engine, renderAttr string) *EngineBackend {
	return &EngineBackend{eng: eng, renderAttr: renderAttr}
}

// Disambiguate runs the engine's guarded lookup. The engine's stage spans
// parent under the span ctx carries (trace.ContextWithSpan), so a
// per-request trace captures this computation's decisions.
func (b *EngineBackend) Disambiguate(ctx context.Context, name string, opts core.BatchOptions) ([][]string, *core.Incident, error) {
	groups, inc, err := b.eng.DisambiguateNameGuarded(ctx, name, opts)
	if err != nil {
		return nil, nil, err
	}
	return b.render(groups), inc, nil
}

func (b *EngineBackend) render(groups [][]reldb.TupleID) [][]string {
	db := b.eng.DB()
	out := make([][]string, len(groups))
	for i, g := range groups {
		keys := make([]string, len(g))
		for j, r := range g {
			keys[j] = db.Tuple(r).Val(b.renderAttr)
		}
		sort.Strings(keys)
		out[i] = keys
	}
	return out
}

func (b *EngineBackend) NumRefs(name string) int { return b.eng.NumRefs(name) }

func (b *EngineBackend) Names(minRefs int) []string { return b.eng.NamesWithRefs(minRefs) }

func (b *EngineBackend) Version() int64 { return b.eng.DB().Version() }

// Bump implements Mutator via the database's synthetic mutation.
func (b *EngineBackend) Bump() int64 { return b.eng.DB().Bump() }

// defaultNameTimeout bounds one name's computation when Options.NameTimeout
// is zero: past it the engine degrades, then falls back, so a request is
// always answered — the serving analogue of the batch sweep's budget.
const defaultNameTimeout = 2 * time.Second
