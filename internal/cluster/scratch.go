package cluster

import "sync"

// scratch holds every buffer the flat agglomeration engine needs: the
// per-merged-cluster stat rows, the candidate heap backing, the alive
// bitmap, and the id-indexed bookkeeping arrays (sizes, union-find parent
// links, heap refcounts, output cursors). A warm scratch makes the merge
// loop allocation-free: only the returned partition (two slices) is
// allocated per run. The original pairs' stats are read from the run's
// Matrix, to which a scratch keeps no reference.
//
// A scratch is reset at the start of every run, so reuse after an aborted
// run is safe. It is not safe for concurrent use; Run draws one from an
// internal sync.Pool and returns it only when the run succeeds — an errored
// run drops its scratch rather than risk handing a torn buffer to the next
// caller.
type scratch struct {
	// The row arena: rowOf[c-n] is merged cluster c's stat row, carved
	// front to back from chunks. A chunk never moves once allocated, and
	// each new one is at least twice the size of the last, so the arena
	// grows without copying a row and a warm run allocates no chunk.
	rowOf  [][]Cell
	chunks [][]Cell
	chunk  int // index of the chunk being carved
	used   int // cells of chunks[chunk] already carved this run
	heap   candidateHeap
	alive  []uint64 // bitmap over cluster ids
	size   []int32  // cluster sizes by id
	parent []int32  // id -> merged-into id, -1 while a root
	nref   []int32  // id -> heap entries referencing it (stale accounting)
	outIdx []int32  // root id -> output cluster index + 1
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s with length n, reusing the backing array when it fits.
// Contents are unspecified; callers initialise what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// reset sizes every buffer for a run over n references (cluster ids
// 0..2n-2) and initialises the per-original state: all originals alive,
// size 1, roots, no heap references. Merged-cluster slots are written at
// merge time before they are read, so they need no up-front clearing —
// except outIdx, whose zero value means "no output cluster yet".
func (s *scratch) reset(n int) {
	maxID := 2*n - 1
	s.rowOf = grow(s.rowOf, n-1)
	s.chunk, s.used = 0, 0
	s.heap = s.heap[:0]
	s.alive = grow(s.alive, (maxID+63)/64)
	s.size = grow(s.size, maxID)
	s.parent = grow(s.parent, maxID)
	s.nref = grow(s.nref, maxID)
	s.outIdx = grow(s.outIdx, maxID)
	clear(s.alive)
	for i := 0; i < n; i++ {
		s.alive[i>>6] |= 1 << (uint(i) & 63)
		s.size[i] = 1
		s.parent[i] = -1
		s.nref[i] = 0
	}
	clear(s.outIdx)
}

func (s *scratch) isAlive(id int32) bool { return s.alive[id>>6]&(1<<(uint(id)&63)) != 0 }
func (s *scratch) kill(id int32)         { s.alive[id>>6] &^= 1 << (uint(id) & 63) }
func (s *scratch) setAlive(id int32)     { s.alive[id>>6] |= 1 << (uint(id) & 63) }

// statAt returns the aggregated stats between clusters x and y, oriented so
// WAB flows from min(x,y) to max(x,y). Original pairs live in m's triangle;
// pairs involving a merged cluster live in that cluster's row (the higher
// id always carries the row, because ids are assigned in merge order and
// the row spans every id below it).
func (s *scratch) statAt(m Matrix, x, y int32) Cell {
	if x > y {
		x, y = y, x
	}
	n := m.N
	if int(y) < n {
		i, j := int(x), int(y)
		return m.Cells[i*n-i*(i+1)/2+(j-i-1)]
	}
	return s.rowOf[int(y)-n][x]
}

// minChunk is the row arena's first chunk size, in cells.
const minChunk = 256

// carve returns a fresh row of m cells from the arena. Contents are
// unspecified; the merge loop writes every cell it later reads. A row that
// does not fit the rest of the current chunk moves on to the next one,
// allocating it — at least double the last chunk — when none is left.
func (s *scratch) carve(m int) []Cell {
	for ; s.chunk < len(s.chunks); s.chunk, s.used = s.chunk+1, 0 {
		if c := s.chunks[s.chunk]; s.used+m <= len(c) {
			row := c[s.used : s.used+m : s.used+m]
			s.used += m
			return row
		}
	}
	size := max(m, minChunk)
	if k := len(s.chunks); k > 0 {
		size = max(size, 2*len(s.chunks[k-1]))
	}
	s.chunks = append(s.chunks, make([]Cell, size))
	s.chunk, s.used = len(s.chunks)-1, m
	return s.chunks[s.chunk][:m:m]
}
