package prop

import (
	"reflect"
	"testing"

	"distinct/internal/reldb"
)

// dblpPaths enumerates realistic paths for the test schema.
func dblpPaths(s *reldb.Schema) []reldb.JoinPath {
	return reldb.EnumerateJoinPaths(s, "Publish", reldb.EnumerateOptions{
		MaxLen: 4,
		ExcludeFirst: []reldb.Step{
			{Rel: "Publish", Attr: "author", Forward: true},
		},
	})
}

// multiEngines are the two engines over a whole trie: the oracle and the
// compiled engine.
var multiEngines = map[string]func(db *reldb.Database, start reldb.TupleID, t *Trie) []SparseNeighborhood{
	"oracle": propagateOracle,
	"compiled": func(db *reldb.Database, start reldb.TupleID, t *Trie) []SparseNeighborhood {
		return flatAll(views(compile(db, t).Propagate(start, nil, nil)))
	},
}

// TestPropagateMultiMatchesSingle is the central prefix-sharing check: on
// both engines, a multi-path trie must return bit-identical neighborhoods
// to its one-path tries.
func TestPropagateMultiMatchesSingle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		db, refs := buildRandomWorld(seed)
		paths := dblpPaths(db.Schema)
		if len(paths) < 5 {
			t.Fatalf("only %d paths enumerated", len(paths))
		}
		trie := NewTrie(paths)
		for name, propagate := range multiEngines {
			for _, r := range refs {
				multi := propagate(db, r, trie)
				for pi, p := range paths {
					single := propagate(db, r, NewTrie([]reldb.JoinPath{p}))[0]
					if !reflect.DeepEqual(single, multi[pi]) {
						t.Fatalf("%s seed %d ref %d path %s: single %+v != multi %+v",
							name, seed, r, p, single, multi[pi])
					}
				}
			}
		}
	}
}

// countNodes returns the number of trie nodes excluding the root — the
// number of distinct path prefixes.
func countNodes(n *trieNode) int {
	c := len(n.children)
	for _, ch := range n.children {
		c += countNodes(ch)
	}
	return c
}

func TestTrieSharesPrefixes(t *testing.T) {
	db, _ := buildRandomWorld(1)
	paths := dblpPaths(db.Schema)
	trie := NewTrie(paths)
	totalSteps := 0
	for _, p := range paths {
		totalSteps += p.Len()
	}
	nodes := countNodes(trie.root)
	if nodes >= totalSteps {
		t.Errorf("trie has %d nodes for %d total path steps; no prefix sharing", nodes, totalSteps)
	}
	t.Logf("paths=%d total steps=%d trie nodes=%d (%.0f%% shared)",
		len(paths), totalSteps, nodes, 100*(1-float64(nodes)/float64(totalSteps)))
}

func TestPropagateMultiWrongStart(t *testing.T) {
	db, _ := buildRandomWorld(2)
	paths := dblpPaths(db.Schema)
	trie := NewTrie(paths)
	author := db.LookupKey("Authors", "aA")
	for name, propagate := range multiEngines {
		out := propagate(db, author, trie)
		if len(out) != len(paths) {
			t.Fatalf("%s: %d neighborhoods for %d paths", name, len(out), len(paths))
		}
		for pi, nb := range out {
			if nb.Keys != nil {
				t.Fatalf("%s: path %d produced a neighborhood from the wrong relation", name, pi)
			}
		}
	}
}

func TestNewTrieIgnoresEmptyPaths(t *testing.T) {
	db, refs := buildRandomWorld(3)
	paths := append([]reldb.JoinPath{{Start: "Publish"}}, dblpPaths(db.Schema)...)
	trie := NewTrie(paths)
	for name, propagate := range multiEngines {
		// The empty path matches the start relation but has no steps: it
		// stays the zero neighborhood.
		if out := propagate(db, refs[0], trie); out[0].Keys != nil {
			t.Errorf("%s: empty path produced %+v", name, out[0])
		}
	}
}
