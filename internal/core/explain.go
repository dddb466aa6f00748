package core

import (
	"fmt"
	"sort"
	"strings"

	"distinct/internal/reldb"
)

// PathContribution is one join path's share of a reference pair's combined
// similarity.
type PathContribution struct {
	Path reldb.JoinPath
	// Resem and Walk are the raw per-path similarities; WeightedResem and
	// WeightedWalk are after the engine's path weights.
	Resem, Walk                 float64
	WeightedResem, WeightedWalk float64
}

// Explanation breaks a pair's similarity down by join path, strongest
// contribution first — the answer to "why does the engine think these two
// references are (not) the same object?".
type Explanation struct {
	R1, R2        reldb.TupleID
	Resem         float64 // combined weighted set resemblance
	Walk          float64 // combined weighted symmetric walk probability
	Contributions []PathContribution
}

// Explain computes the per-path breakdown of the similarity between two
// references. Paths contributing nothing are omitted.
func (e *Engine) Explain(r1, r2 reldb.TupleID) *Explanation {
	ex := &Explanation{R1: r1, R2: r2}
	for p, t := range e.ext.Pair(e.ext.Neighborhoods(r1), e.ext.Neighborhoods(r2), nil) {
		r, w := t.Resem, (t.WalkAB+t.WalkBA)/2
		if r == 0 && w == 0 {
			continue
		}
		c := PathContribution{
			Path:          e.paths[p],
			Resem:         r,
			Walk:          w,
			WeightedResem: e.w.resem[p] * r,
			WeightedWalk:  e.w.walk[p] * w,
		}
		ex.Resem += c.WeightedResem
		ex.Walk += c.WeightedWalk
		ex.Contributions = append(ex.Contributions, c)
	}
	sort.Slice(ex.Contributions, func(i, j int) bool {
		a, b := ex.Contributions[i], ex.Contributions[j]
		if a.WeightedResem+a.WeightedWalk != b.WeightedResem+b.WeightedWalk {
			return a.WeightedResem+a.WeightedWalk > b.WeightedResem+b.WeightedWalk
		}
		return a.Path.String() < b.Path.String()
	})
	return ex
}

// Format renders the explanation as indented text, resolving the path
// descriptions against the engine's schema.
func (ex *Explanation) Format(schema *reldb.Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "similarity(ref %d, ref %d): resemblance %.6f, walk %.6g\n",
		ex.R1, ex.R2, ex.Resem, ex.Walk)
	if len(ex.Contributions) == 0 {
		b.WriteString("  no shared linkage on any join path\n")
		return b.String()
	}
	for _, c := range ex.Contributions {
		fmt.Fprintf(&b, "  %-90s resem %.4f (w %.4f)  walk %.6f (w %.6f)\n",
			c.Path.Describe(schema), c.Resem, c.WeightedResem, c.Walk, c.WeightedWalk)
	}
	return b.String()
}
