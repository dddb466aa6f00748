package cluster

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestCellSize pins the pair cell at three float64s: the triangle's size,
// and the merge loop's memory traffic, scale with it.
func TestCellSize(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != 24 {
		t.Fatalf("Cell is %d bytes, want 24", got)
	}
}

// TestMatrixRowsTileTriangle: the rows are consecutive stretches of the
// packed triangle, in pair order, covering every cell once.
func TestMatrixRowsTileTriangle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7} {
		m := NewMatrix(n)
		if m.N != n || len(m.Cells) != n*(n-1)/2 {
			t.Fatalf("NewMatrix(%d): N %d, %d cells", n, m.N, len(m.Cells))
		}
		k := 0
		for i := 0; i < n; i++ {
			row := m.Row(i)
			if len(row) != n-i-1 || cap(row) != n-i-1 {
				t.Fatalf("n=%d: row %d has len %d cap %d, want %d", n, i, len(row), cap(row), n-i-1)
			}
			for j := range row {
				if &row[j] != &m.Cells[k] {
					t.Fatalf("n=%d: pair (%d,%d) is not cell %d", n, i, i+1+j, k)
				}
				k++
			}
		}
	}
}

// TestConcurrentRunsShareMatrix: Run only reads its matrix, so runs on one
// Matrix may overlap (a served name and a sweep share cached matrices).
// Under -race an engine write to m is reported; without it the cells must
// still be bit-identical afterwards and each run must match its serial
// twin.
func TestConcurrentRunsShareMatrix(t *testing.T) {
	m := randomMatrix(rand.New(rand.NewSource(31)), 60)
	before := append([]Cell(nil), m.Cells...)
	optsA := Options{Measure: Combined, MinSim: 0.3}
	optsB := Options{Measure: SingleLink, Stop: StopDendrogram}
	wantA := clustersOf(m, optsA)
	wantB := dendroMerges(dendrogramOf(m, optsB))

	for round := 0; round < 4; round++ {
		var (
			wg   sync.WaitGroup
			gotA [][]int
			gotB []Merge
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			gotA = clustersOf(m, optsA)
		}()
		go func() {
			defer wg.Done()
			gotB = dendroMerges(dendrogramOf(m, optsB))
		}()
		wg.Wait()
		requireSamePartition(t, wantA, gotA, "concurrent run")
		requireSameTrace(t, wantB, gotB, "concurrent dendrogram")
	}
	for k, c := range m.Cells {
		b := before[k]
		if math.Float64bits(c.R) != math.Float64bits(b.R) ||
			math.Float64bits(c.WAB) != math.Float64bits(b.WAB) ||
			math.Float64bits(c.WBA) != math.Float64bits(b.WBA) {
			t.Fatalf("cell %d changed: %+v -> %+v", k, b, c)
		}
	}
}

// TestScratchDropsMatrix: a scratch reads the original pairs from the
// run's matrix and keeps no reference to it, so a long-lived scratch
// (one per sweep worker) never pins a name's triangle after its run. The
// triangle must be collectable while the scratch that clustered it lives.
func TestScratchDropsMatrix(t *testing.T) {
	scr := new(scratch)
	collected := make(chan struct{})
	func() {
		m := randomMatrix(rand.New(rand.NewSource(37)), 40)
		runtime.SetFinalizer(&m.Cells[0], func(*Cell) { close(collected) })
		for _, stop := range []Stop{StopMinSim, StopDendrogram, StopGap} {
			if _, err := run(context.Background(), m, Options{MinSim: 0.2, Stop: stop}, scr); err != nil {
				t.Fatal(err)
			}
		}
	}()
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the matrix stayed reachable after its run")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// The scratch is still whole: a run on it matches a pooled run.
	m := randomMatrix(rand.New(rand.NewSource(41)), 30)
	want := clustersOf(m, Options{MinSim: 0.2})
	if got := clustersOn(scr, m, Options{MinSim: 0.2}); !reflect.DeepEqual(want, got) {
		t.Fatalf("reused scratch: %v, want %v", got, want)
	}
}
