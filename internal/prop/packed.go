package prop

import (
	"math/bits"
	"slices"

	"distinct/internal/reldb"
)

// Neighborhoods is one reference's neighborhoods along every path of a
// plan, packed into one immutable value. Path(p) reads path p's
// neighborhood back as a SparseNeighborhood view.
//
// The value holds its records — the Keys and FBs of every path it owns,
// back to back — in two arrays, and an index of 16-byte cells: the first
// ⌈P/64⌉ cells are a bitmap over the P paths marking the ones it owns,
// and each owned path, in path order, then has one cell with its record
// range and SumFwd. A path with nothing reached owns no cell. Paths whose
// records are identical across a share-key group (CompiledTrie.ShareKey)
// are owned by the group's donor alone: the other members point at it,
// always the owner itself and never another borrower, and read those
// paths from it. Whether a path's neighborhood is grouped, and over which
// fan-out tail, is a property of the path, so the tail lives on the plan's
// per-path descriptor, not in the value.
type Neighborhoods struct {
	keys  []reldb.TupleID
	fbs   []FB
	cells []cell
	paths []pathDesc     // the plan's, shared by every value it propagates
	donor *Neighborhoods // owner of the shared paths, nil when it owns them
}

// pathDesc is what a value needs to know about one path of its plan.
type pathDesc struct {
	tail   *reldb.HopCSR // the fan-out tail of the path's grouped neighborhoods, nil when flat
	shared bool          // a borrower reads the path from its donor
}

// cell is one 16-byte entry of a value's index: an owned path's records
// keys[lo:hi], fbs[lo:hi] and their SumFwd, or, in the index's leading
// cells, 64 bits of the ownership bitmap, lo the low half and hi the high.
type cell struct {
	lo, hi uint32
	sum    float64
}

func (c cell) word() uint64 { return uint64(c.lo) | uint64(c.hi)<<32 }

func (c *cell) setBit(b int) {
	if b < 32 {
		c.lo |= 1 << b
	} else {
		c.hi |= 1 << (b - 32)
	}
}

// NumPaths returns the number of paths, owned or not.
func (n *Neighborhoods) NumPaths() int { return len(n.paths) }

// Slots returns the number of paths whose records n holds itself: its
// index cells beyond the bitmap.
func (n *Neighborhoods) Slots() int { return len(n.cells) - bitmapCells(len(n.paths)) }

// Path returns the neighborhood along path p as a view of the value's
// arrays: Keys and FBs are capacity-capped windows, so appending to them
// copies, and the value itself never changes. A path the value does not
// own and does not borrow is the zero SparseNeighborhood.
func (n *Neighborhoods) Path(p int) SparseNeighborhood {
	d := &n.paths[p]
	if d.shared && n.donor != nil {
		n = n.donor
	}
	w, bit := p>>6, uint64(1)<<(p&63)
	word := n.cells[w].word()
	if word&bit == 0 {
		return SparseNeighborhood{}
	}
	r := bitmapCells(len(n.paths)) + bits.OnesCount64(word&(bit-1))
	for _, c := range n.cells[:w] {
		r += bits.OnesCount64(c.word())
	}
	c := n.cells[r]
	return SparseNeighborhood{
		Keys:   n.keys[c.lo:c.hi:c.hi],
		FBs:    n.fbs[c.lo:c.hi:c.hi],
		SumFwd: c.sum,
		Tail:   d.tail,
	}
}

// Pack returns a value whose Path(p) equals views[p] for every p, a view
// with no keys reading back as the zero SparseNeighborhood. It copies the
// records; the views' tails become the value's path descriptors.
func Pack(views []SparseNeighborhood) *Neighborhoods {
	paths := make([]pathDesc, len(views))
	spans := make([]cell, len(views))
	var keys []reldb.TupleID
	var fbs []FB
	for p, v := range views {
		if len(v.Keys) == 0 {
			continue
		}
		paths[p].tail = v.Tail
		spans[p] = cell{lo: uint32(len(keys)), hi: uint32(len(keys) + len(v.Keys)), sum: v.SumFwd}
		keys, fbs = append(keys, v.Keys...), append(fbs, v.FBs...)
	}
	return pack(paths, spans, keys, fbs, nil)
}

// pack builds the value that owns spans[p]'s records of keys and fbs for
// every non-empty span, copying the records, and reads its shared paths
// from donor, an owner or nil.
func pack(paths []pathDesc, spans []cell, keys []reldb.TupleID, fbs []FB, donor *Neighborhoods) *Neighborhoods {
	nw, owned := bitmapCells(len(paths)), 0
	for _, sp := range spans {
		if sp.hi > sp.lo {
			owned++
		}
	}
	n := newNeighborhoods(nw + owned)
	n.paths, n.donor = paths, donor
	if owned > 0 {
		n.keys, n.fbs = slices.Clone(keys), slices.Clone(fbs)
	}
	r := nw
	for p, sp := range spans {
		if sp.hi > sp.lo {
			n.cells[p>>6].setBit(p & 63)
			n.cells[r] = sp
			r++
		}
	}
	return n
}

// bitmapCells returns how many cells the ownership bitmap of np paths
// takes.
func bitmapCells(np int) int { return (np + 63) >> 6 }

// withCells co-allocates a value with room for its index, so a value and
// its two record arrays are three allocations.
type withCells[A any] struct {
	n     Neighborhoods
	cells A
}

// newNeighborhoods returns a zero value with an index of ncells cells,
// co-allocated up to 64 cells.
func newNeighborhoods(ncells int) *Neighborhoods {
	switch {
	case ncells <= 2:
		v := new(withCells[[2]cell])
		v.n.cells = v.cells[:ncells:ncells]
		return &v.n
	case ncells <= 4:
		v := new(withCells[[4]cell])
		v.n.cells = v.cells[:ncells:ncells]
		return &v.n
	case ncells <= 8:
		v := new(withCells[[8]cell])
		v.n.cells = v.cells[:ncells:ncells]
		return &v.n
	case ncells <= 16:
		v := new(withCells[[16]cell])
		v.n.cells = v.cells[:ncells:ncells]
		return &v.n
	case ncells <= 32:
		v := new(withCells[[32]cell])
		v.n.cells = v.cells[:ncells:ncells]
		return &v.n
	case ncells <= 64:
		v := new(withCells[[64]cell])
		v.n.cells = v.cells[:ncells:ncells]
		return &v.n
	}
	return &Neighborhoods{cells: make([]cell, ncells)}
}
