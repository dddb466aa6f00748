package prop

import (
	"distinct/internal/reldb"
)

// Join paths from one reference relation overlap heavily: in the paper's
// DBLP schema every path begins Publish>paper-key>Publications, and the
// length-4 paths mostly extend the same length-3 prefixes. Propagation
// exploits this by arranging the paths in a prefix trie and walking the
// database once per reference instead of once per (reference, path): a
// shared prefix's fan-out is traversed a single time, and each trie node
// deposits results for every path terminating there.
//
// A multi-path trie gives bit-identical results to its one-path tries:
// within one path the traversal visits the same tuples in the same order,
// so the floating-point accumulation order is unchanged. The tests assert
// exact equality, on the compiled engine and on the test oracle.

// trieNode is one node of the path prefix trie.
type trieNode struct {
	// step is the edge from the parent (zero value at the root).
	step reldb.Step
	// terminal lists the indexes of paths ending at this node.
	terminal []int
	children []*trieNode
}

// Trie is a prefix tree over a fixed path list, reusable across references.
type Trie struct {
	root  *trieNode
	paths []reldb.JoinPath
}

// NewTrie builds the prefix trie of the given paths. Paths must all start
// at the same relation; empty paths are ignored.
func NewTrie(paths []reldb.JoinPath) *Trie {
	t := &Trie{root: &trieNode{}, paths: paths}
	for i, p := range paths {
		if len(p.Steps) == 0 {
			continue
		}
		node := t.root
		for _, st := range p.Steps {
			var child *trieNode
			for _, c := range node.children {
				if c.step == st {
					child = c
					break
				}
			}
			if child == nil {
				child = &trieNode{step: st}
				node.children = append(node.children, child)
			}
			node = child
		}
		node.terminal = append(node.terminal, i)
	}
	return t
}
