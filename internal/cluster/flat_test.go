package cluster

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"distinct/internal/fault"
	"distinct/internal/obs"
)

// The flat engine must reproduce the map-based oracle bit for bit: same
// partitions, same merge sequences (member order included), same merge
// similarities down to the float bits.

var allMeasures = []Measure{Combined, ResemOnly, WalkOnly, CombinedArithmetic, SingleLink, CompleteLink}

func requireSamePartition(t *testing.T, want, got [][]int, label string) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: partition mismatch\nwant %v\ngot  %v", label, want, got)
	}
}

func requireSameTrace(t *testing.T, want, got []Merge, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i].A, got[i].A) || !reflect.DeepEqual(want[i].B, got[i].B) {
			t.Fatalf("%s: merge %d members\nwant A=%v B=%v\ngot  A=%v B=%v",
				label, i, want[i].A, want[i].B, got[i].A, got[i].B)
		}
		if math.Float64bits(want[i].Sim) != math.Float64bits(got[i].Sim) {
			t.Fatalf("%s: merge %d sim %v vs %v", label, i, want[i].Sim, got[i].Sim)
		}
	}
}

// requireMatchesOracle holds the flat engine to the oracle on one input:
// the partition at opts.MinSim, and the full merge sequence — the
// dendrogram, recorded at MinSim 0 — against the oracle's MinSim-0 trace.
// It returns the flat engine's merge sequence.
func requireMatchesOracle(t *testing.T, s *scratch, m Matrix, opts Options, label string) []Merge {
	t.Helper()
	wantOut, _ := agglomerateOracle(m, opts)
	requireSamePartition(t, wantOut, clustersOn(s, m, opts), label)
	full := opts
	full.MinSim = 0
	_, wantTrace := agglomerateOracle(m, full)
	gotTrace := dendroMerges(dendrogramOn(s, m, full))
	requireSameTrace(t, wantTrace, gotTrace, label)
	return gotTrace
}

func TestFlatMatchesMapReference(t *testing.T) {
	minSims := []float64{0, 0.0005, 0.01, 0.1, 0.3}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := randomMatrix(rng, n)
		for _, meas := range allMeasures {
			for _, ms := range minSims {
				opts := Options{Measure: meas, MinSim: ms}
				requireMatchesOracle(t, nil, m, opts, opts.Measure.String())
			}
		}
	}
}

// Single/complete link propagate min/max resemblance through merges whose
// walk stats are asymmetric; a directed check that the flat row layout
// orients takeStats/mergeOriented the same way the map did, on matrices
// built to make every orientation mistake visible (WAB != WBA everywhere,
// R values all distinct).
func TestLinkMeasuresOrientationFlat(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		m := NewMatrix(n)
		v := 0.001
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				wab := rng.Float64()
				wba := wab * (0.1 + rng.Float64()) // asymmetric
				set(m, i, j, Cell{R: v, WAB: wab, WBA: wba})
				v += 0.001 // all-distinct resemblances
			}
		}
		for _, meas := range []Measure{SingleLink, CompleteLink, Combined, WalkOnly} {
			opts := Options{Measure: meas, MinSim: 0.002}
			requireMatchesOracle(t, nil, m, opts, meas.String())
		}
	}
}

// An explicitly reused scratch must not bleed state between runs of
// different sizes, measures, or matrices.
func TestScratchReuseBitIdentical(t *testing.T) {
	scr := new(scratch)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		m := randomMatrix(rng, n)
		meas := allMeasures[trial%len(allMeasures)]
		opts := Options{Measure: meas, MinSim: 0.01}
		got := clustersOn(scr, m, opts)
		want := clustersOf(m, opts)
		requireSamePartition(t, want, got, "scratch reuse")
	}
}

// A full MinSim-0 run over a block big enough to cross compactMinHeap
// exercises the stale-entry compaction path; the merge order must not move.
func TestHeapCompactionPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64 // peak heap ~ n²/2 = 2016 > compactMinHeap
	m := randomMatrix(rng, n)
	for _, meas := range []Measure{Combined, SingleLink} {
		opts := Options{Measure: meas, MinSim: 0}
		gotTrace := requireMatchesOracle(t, nil, m, opts, meas.String())
		if len(gotTrace) != n-1 {
			t.Fatalf("MinSim 0 should merge fully: %d merges for n=%d", len(gotTrace), n)
		}
	}
}

func TestHeapStalePopsCounter(t *testing.T) {
	reg := obs.NewRegistry()
	rng := rand.New(rand.NewSource(3))
	n := 32
	m := randomMatrix(rng, n)
	clustersOf(m, Options{Measure: Combined, MinSim: 0, Obs: reg})
	if reg.Counter("cluster.heap_stale_pops").Value() == 0 {
		t.Fatal("a full random-matrix agglomeration should pop stale entries")
	}
	if got, want := reg.Counter("cluster.merges").Value(), int64(n-1); got != want {
		t.Fatalf("cluster.merges = %d, want %d", got, want)
	}
	if got := reg.Counter("cluster.runs").Value(); got != 1 {
		t.Fatalf("cluster.runs = %d, want 1", got)
	}
}

// stepStatMerges is the number of pair statistics the dense merge loop
// combines over the first merges merges of n references: merge k derives
// the new cluster's stats against the n−2−k other live clusters.
func stepStatMerges(n, merges int64) int64 {
	total := int64(0)
	for k := int64(0); k < merges; k++ {
		total += n - 2 - k
	}
	return total
}

// TestStatMergesCounter holds cluster.stat_merges to the dense identity
// Σ_{k<M} (n−2−k) on random inputs, in every stop mode. A gap run records
// a full dendrogram and, when its cut is not prefix-consistent, merges
// again directly; each merge loop obeys the identity on its own.
func TestStatMergesCounter(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := randomMatrix(rng, n)
		minSim := rng.Float64() * 0.5
		for _, stop := range []Stop{StopMinSim, StopDendrogram, StopGap} {
			reg := obs.NewRegistry()
			if _, err := Run(context.Background(), m, Options{Measure: Combined, MinSim: minSim, Stop: stop, Obs: reg}); err != nil {
				t.Fatal(err)
			}
			merges := reg.Counter("cluster.merges").Value()
			want := int64(0)
			if reg.Counter("cluster.dendrogram_runs").Value() == 1 {
				want = stepStatMerges(int64(n), int64(n-1))
				merges -= int64(n - 1)
			}
			if reg.Counter("cluster.runs").Value() == 1 {
				want += stepStatMerges(int64(n), merges)
			}
			if got := reg.Counter("cluster.stat_merges").Value(); got != want {
				t.Fatalf("seed %d stop %d: cluster.stat_merges = %d, want %d (n=%d)", seed, stop, got, want, n)
			}
		}
	}
}

// Cancellation observed inside the merge loop must abort with the context
// error, and the same scratch must then produce bit-identical clean runs —
// i.e. an aborted run leaves no state behind that reset doesn't clear.
func TestMergeLoopCancelScratchHygiene(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 24
	m := randomMatrix(rng, n)
	opts := Options{Measure: Combined, MinSim: 0}

	want := clustersOf(m, opts)

	scr := new(scratch)
	ctx, cancel := context.WithCancel(context.Background())
	freg := fault.NewRegistry(1)
	freg.Set("cluster.merge", fault.Rule{OnHit: 5, Hook: func() { cancel() }})
	res, err := run(fault.With(ctx, freg), m, opts, scr)
	if err == nil || res.Clusters != nil {
		t.Fatalf("cancelled run returned out=%v err=%v", res.Clusters, err)
	}
	if ctx.Err() == nil || err != ctx.Err() {
		t.Fatalf("expected the context error, got %v", err)
	}

	// The dirtied scratch must reset cleanly.
	got := clustersOn(scr, m, opts)
	requireSamePartition(t, want, got, "post-cancel reuse")
}

// An error inside the merge loop must not return the pooled scratch: a
// subsequent pooled run (which may or may not get a fresh scratch) still
// has to be bit-identical.
func TestMergeLoopErrorPooledRunsStayClean(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 20
	m := randomMatrix(rng, n)
	opts := Options{Measure: Combined, MinSim: 0}
	want := clustersOf(m, opts)

	freg := fault.NewRegistry(1)
	freg.Set("cluster.merge", fault.Rule{OnHit: 3, Err: fault.ErrInjected})
	if _, err := Run(fault.With(context.Background(), freg), m, opts); err == nil {
		t.Fatal("expected the injected error")
	}
	for i := 0; i < 4; i++ {
		got := clustersOf(m, opts)
		requireSamePartition(t, want, got, "post-error pooled run")
	}
}

func TestPartitionSlicesAreGrowSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 18
	m := randomMatrix(rng, n)
	out := clustersOf(m, Options{Measure: Combined, MinSim: 0.05})
	if len(out) < 2 {
		t.Skip("need at least two clusters for the aliasing check")
	}
	snapshot := make([][]int, len(out))
	for i, cl := range out {
		snapshot[i] = append([]int(nil), cl...)
	}
	// Appending to one cluster must not clobber its neighbours (the carved
	// slices are at full capacity, so append must copy).
	_ = append(out[0], -1)
	for i := range out {
		if !reflect.DeepEqual(snapshot[i], out[i]) {
			t.Fatalf("cluster %d changed after append: %v -> %v", i, snapshot[i], out[i])
		}
	}
}

// The row arena carves merged clusters' rows from chunks that never move.
// FuzzAgglomerate's blocks stay inside the first chunk, so this drives one
// scratch through blocks whose rows span at least three chunks — growing,
// then shrinking, then after a cancelled run — holding partitions and the
// full merge sequence to the oracle at every size.
func TestRowArenaSpansChunks(t *testing.T) {
	scr := new(scratch)
	check := func(n int, seed int64, label string) {
		t.Helper()
		m := randomMatrix(rand.New(rand.NewSource(seed)), n)
		for _, meas := range []Measure{Combined, SingleLink} {
			opts := Options{Measure: meas, MinSim: 0.01}
			requireMatchesOracle(t, scr, m, opts, label)
			// The last run recorded the dendrogram, n−1 merges on one scratch.
			if scr.chunk < 2 {
				t.Fatalf("%s: n=%d rows fit in %d chunk(s); the test needs at least 3", label, n, scr.chunk+1)
			}
		}
	}
	for i, n := range []int{48, 80, 112, 64, 40} {
		check(n, int64(i), "grow/shrink")
	}

	const n = 112
	m := randomMatrix(rand.New(rand.NewSource(9)), n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	freg := fault.NewRegistry(1)
	freg.Set("cluster.merge", fault.Rule{OnHit: n / 2, Hook: cancel})
	if _, err := run(fault.With(ctx, freg), m, Options{}, scr); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	check(56, 20, "after cancel")
	check(n, 21, "after cancel")
}

// TestWarmAllocsCeiling pins the warm merge loop's allocations: with a warm
// scratch, a run over a name-sized block (143 references, every one of
// them merged) allocates its partition and nothing per merge. Three
// allocations were measured; the ceiling leaves room for small layout
// changes, not for one allocation per merge.
func TestWarmAllocsCeiling(t *testing.T) {
	const n, groups = 143, 9
	rng := rand.New(rand.NewSource(5))
	m := NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			r := 0.002 * rng.Float64()
			if i%groups == j%groups {
				r = 0.05 + 0.4*rng.Float64()
			}
			wab := r * (0.5 + rng.Float64())
			set(m, i, j, Cell{R: r, WAB: wab, WBA: r * (0.5 + rng.Float64())})
		}
	}
	opts := Options{Measure: Combined, MinSim: 0.0005}
	scr := new(scratch)
	if out := clustersOn(scr, m, opts); len(out) > 2*groups {
		t.Fatalf("%d clusters: the block should mostly merge", len(out))
	}
	const ceiling = 16
	if got := testing.AllocsPerRun(20, func() { clustersOn(scr, m, opts) }); got > ceiling {
		t.Errorf("warm agglomeration allocates %v per run, ceiling %v", got, ceiling)
	}
}
