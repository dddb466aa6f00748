package prop

import (
	"context"
	"sort"
	"testing"

	"distinct/internal/reldb"
)

// propagateOracle is the reference propagation engine every compiled result
// is held to: the depth-first traversal of the package doc, walked once per
// reference over the path prefix trie, accumulating each path instance's
// masses into per-path maps through the database's hash indexes, then
// finalising each map into the sorted sparse form (SumFwd summed in key
// order). It is unoptimised on purpose — one hash upsert per instance, one
// JoinFanout lookup per edge visit — so it is easy to audit against
// Figure 3 of the paper. The result is indexed like the trie's path list;
// paths whose start relation does not match the tuple, and empty paths,
// yield the zero neighborhood.
func propagateOracle(db *reldb.Database, start reldb.TupleID, t *Trie) []SparseNeighborhood {
	acc := make([]map[reldb.TupleID]FB, len(t.paths))
	startRel := db.Tuple(start).Rel.Name
	for i, p := range t.paths {
		if len(p.Steps) > 0 && p.Start == startRel {
			acc[i] = make(map[reldb.TupleID]FB)
		}
	}
	var buf []reldb.TupleID
	var walk func(node *trieNode, cur, cameFrom reldb.TupleID, fwd, bwd float64)
	walk = func(node *trieNode, cur, cameFrom reldb.TupleID, fwd, bwd float64) {
		for _, pi := range node.terminal {
			if acc[pi] == nil {
				continue
			}
			fb := acc[pi][cur]
			fb.Fwd += fwd
			fb.Bwd += bwd
			acc[pi][cur] = fb
		}
		for _, child := range node.children {
			buf = db.Joinable(cur, child.step, cameFrom, buf[:0])
			if len(buf) == 0 {
				continue // dead end: this branch's mass is lost
			}
			split := fwd / float64(len(buf))
			// Joinable appends into the shared buffer, so copy before recursing.
			next := append([]reldb.TupleID(nil), buf...)
			for _, tid := range next {
				rev := db.JoinFanout(tid, child.step.Inverse())
				if rev == 0 {
					// Unreachable when tid was just reached across this
					// edge, but guard against division by zero.
					continue
				}
				walk(child, tid, cur, split, bwd/float64(rev))
			}
		}
	}
	walk(t.root, start, reldb.InvalidTuple, 1, 1)
	out := make([]SparseNeighborhood, len(t.paths))
	for i, m := range acc {
		out[i] = sparseOf(m)
	}
	return out
}

// sparseOf finalises an accumulated map into the sorted sparse form.
func sparseOf(m map[reldb.TupleID]FB) SparseNeighborhood {
	if len(m) == 0 {
		return SparseNeighborhood{}
	}
	keys := make([]reldb.TupleID, 0, len(m))
	for t := range m {
		keys = append(keys, t)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	fbs := make([]FB, len(keys))
	var sum float64
	for i, t := range keys {
		fbs[i] = m[t]
		sum += fbs[i].Fwd
	}
	return SparseNeighborhood{Keys: keys, FBs: fbs, SumFwd: sum}
}

// engine propagates one reference along one join path.
type engine func(db *reldb.Database, start reldb.TupleID, path reldb.JoinPath) SparseNeighborhood

// engines are the two propagation engines the single-path tests run on:
// the oracle and the compiled engine, each over a one-path trie.
var engines = map[string]engine{
	"oracle": func(db *reldb.Database, start reldb.TupleID, path reldb.JoinPath) SparseNeighborhood {
		return propagateOracle(db, start, NewTrie([]reldb.JoinPath{path}))[0]
	},
	"compiled": func(db *reldb.Database, start reldb.TupleID, path reldb.JoinPath) SparseNeighborhood {
		return flat(compile(db, NewTrie([]reldb.JoinPath{path})).Propagate(start, nil, nil).Path(0))
	},
}

// flat returns nb in flat form: a grouped neighborhood's segments
// (AppendSegments) sorted into key order, a flat one as it is.
func flat(nb SparseNeighborhood) SparseNeighborhood {
	if nb.Tail == nil {
		return nb
	}
	type entry struct {
		key reldb.TupleID
		fb  FB
	}
	var es []entry
	for _, sg := range nb.AppendSegments(nil) {
		for k, t := range sg.Keys {
			fb := sg.Shared
			if sg.FBs != nil {
				fb = sg.FBs[k]
			}
			es = append(es, entry{t, fb})
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	out := SparseNeighborhood{Keys: make([]reldb.TupleID, len(es)), FBs: make([]FB, len(es)), SumFwd: nb.SumFwd}
	for i, e := range es {
		out.Keys[i], out.FBs[i] = e.key, e.fb
	}
	return out
}

// views returns the neighborhood of n along every path, in path order.
func views(n *Neighborhoods) []SparseNeighborhood {
	out := make([]SparseNeighborhood, n.NumPaths())
	for p := range out {
		out[p] = n.Path(p)
	}
	return out
}

// flatAll is flat over every path's neighborhood.
func flatAll(nbs []SparseNeighborhood) []SparseNeighborhood {
	out := make([]SparseNeighborhood, len(nbs))
	for i, nb := range nbs {
		out[i] = flat(nb)
	}
	return out
}

// compile is CompileTrieCtx with a background context and default workers.
func compile(db *reldb.Database, t *Trie) *CompiledTrie {
	return CompileTrieCtx(context.Background(), db, t, 0)
}

// lookup returns the probabilities of one neighbor tuple.
func lookup(s SparseNeighborhood, t reldb.TupleID) (FB, bool) {
	i := sort.Search(len(s.Keys), func(i int) bool { return s.Keys[i] >= t })
	if i < len(s.Keys) && s.Keys[i] == t {
		return s.FBs[i], true
	}
	return FB{}, false
}

// BenchmarkPropagate compares one full multi-path propagation under the
// oracle and the compiled engine on the same world. Both produce the same
// sorted neighborhoods, so ns/op and B/op are directly comparable.
func BenchmarkPropagate(b *testing.B) {
	db, refs := buildRandomWorld(5)
	trie := NewTrie(dblpPaths(db.Schema))
	b.Run("mapdfs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			propagateOracle(db, refs[i%len(refs)], trie)
		}
	})
	b.Run("csr", func(b *testing.B) {
		ct := compile(db, trie)
		s := ct.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ct.Propagate(refs[i%len(refs)], s, nil)
		}
	})
}
