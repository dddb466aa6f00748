package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
	"distinct/internal/obs"
	"distinct/internal/reldb"
)

// TestEntryPointsOnOnePath holds every entry point that scores a block to
// the direct computation over its own Similarities matrix under the same
// options, bit for bit: DisambiguateRefsAuto and MergeProfile to
// cluster.Run, NameAffinity to the cross-pair sum, TuneMinSim to the
// per-threshold reference. Each scored block must open the similarities
// stage once and each clustering the cluster stage once.
func TestEntryPointsOnOnePath(t *testing.T) {
	w := testWorld(t)
	cfg := engineConfig(w, true)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	e, err := NewEngineCtx(context.Background(), w.DB, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.TrainCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	stageCounts := func() (sims, clusters int64) {
		st := reg.Snapshot().Stages
		return st["similarities"].Count, st["cluster"].Count
	}
	// expectStages runs f, which must open the similarities stage sims
	// times and the cluster stage clusters times.
	expectStages := func(label string, sims, clusters int64, f func()) {
		t.Helper()
		s0, c0 := stageCounts()
		f()
		s1, c1 := stageCounts()
		if s1-s0 != sims || c1-c0 != clusters {
			t.Errorf("%s opened %d similarities and %d cluster stages, want %d and %d",
				label, s1-s0, c1-c0, sims, clusters)
		}
	}
	run := func(m cluster.Matrix, stop cluster.Stop) cluster.Result {
		t.Helper()
		res, err := cluster.Run(context.Background(), m, cluster.Options{
			Measure: e.cfg.Measure, MinSim: e.cfg.MinSim, Stop: stop,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	refs := e.RefsForName("Wei Wang")
	m := e.Similarities(refs)

	var auto [][]reldb.TupleID
	expectStages("DisambiguateRefsAuto", 1, 1, func() { auto = e.DisambiguateRefsAuto(refs) })
	if want := groupRefs(refs, run(m, cluster.StopGap).Clusters); !reflect.DeepEqual(auto, want) {
		t.Errorf("DisambiguateRefsAuto = %v, want %v", auto, want)
	}

	var prof []MergeStep
	expectStages("MergeProfile", 1, 1, func() { prof = e.MergeProfile(refs) })
	merges := run(m, cluster.StopDendrogram).Dendrogram.Merges
	if len(prof) != len(merges) {
		t.Fatalf("MergeProfile has %d steps, want %d", len(prof), len(merges))
	}
	for i, mg := range merges {
		if p := prof[i]; math.Float64bits(p.Sim) != math.Float64bits(mg.Sim) ||
			p.SizeA != int(mg.SizeA) || p.SizeB != int(mg.SizeB) {
			t.Fatalf("merge %d: %+v, want %+v", i, p, mg)
		}
	}

	var aff float64
	expectStages("NameAffinity", 1, 0, func() { aff = e.NameAffinity("Wei Wang", "Bin Yu") })
	ra := strideSample(e.RefsForName("Wei Wang"), affinitySampleCap)
	rb := strideSample(e.RefsForName("Bin Yu"), affinitySampleCap)
	am := e.Similarities(append(append([]reldb.TupleID(nil), ra...), rb...))
	na, nb := len(ra), len(rb)
	var sumResem, walkAB, walkBA float64
	for i := 0; i < na; i++ {
		for j := na; j < na+nb; j++ {
			c := am.Row(i)[j-i-1]
			sumResem += c.R
			walkAB += c.WAB
			walkBA += c.WBA
		}
	}
	wantAff := math.Sqrt(sumResem / float64(na*nb) * ((walkAB/float64(na) + walkBA/float64(nb)) / 2))
	if math.Float64bits(aff) != math.Float64bits(wantAff) {
		t.Errorf("NameAffinity = %v, want %v", aff, wantAff)
	}

	// Last: TuneMinSim installs the threshold it picks.
	want, err := tuneMinSimReference(e, nil, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	s0, c0 := stageCounts()
	got, err := e.TuneMinSim(nil, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1, c1 := stageCounts(); s1-s0 != int64(got.Cases) || c1-c0 != int64(got.Cases) {
		t.Errorf("TuneMinSim opened %d similarities and %d cluster stages for %d cases, want one each per case",
			s1-s0, c1-c0, got.Cases)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TuneMinSim = %+v, want %+v", got, want)
	}
}

// bigNamesWorld is testWorld with two ambiguous names of 150 references
// each, so one block of both is about 300 references.
func bigNamesWorld(t testing.TB) *dblp.World {
	t.Helper()
	cfg := dblp.DefaultConfig()
	cfg.Seed = 3
	cfg.Communities = 4
	cfg.AuthorsPerCommunity = 60
	cfg.PapersPerAuthor = 3
	cfg.Ambiguous = []dblp.AmbiguousName{
		{Name: "Wei Wang", RefsPerAuthor: []int{90, 60}},
		{Name: "Bin Yu", RefsPerAuthor: []int{80, 70}},
	}
	w, err := dblp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWarmCallsReusePooledTriangle: once warm, MergeProfile and
// NameAffinity draw their triangle from the pool, so a call allocates
// less than one triangle of its block (12·n(n−1) bytes). The collector is
// off while measuring, so the pool cannot be emptied mid-measurement. A
// sync.Pool keeps one item per processor out of reach of the others, so a
// call that lands on a processor the pools have not seen yet still misses:
// the median call is held to the bound.
func TestWarmCallsReusePooledTriangle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	w := bigNamesWorld(t)
	e := newTestEngine(t, w, false)
	refs := append(e.RefsForName("Wei Wang"), e.RefsForName("Bin Yu")...)
	sampled := 2 * affinitySampleCap
	cases := []struct {
		name string
		n    int // references in the scored block
		call func()
	}{
		{"MergeProfile", len(refs), func() { e.MergeProfile(refs) }},
		{"NameAffinity", sampled, func() { e.NameAffinity("Wei Wang", "Bin Yu") }},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range cases {
		tc.call() // warm-up: neighborhoods, the pooled triangle and scratch
		bytes := make([]uint64, 9)
		for i := range bytes {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tc.call()
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(bytes)
		if median, triangle := bytes[len(bytes)/2], uint64(12*tc.n*(tc.n-1)); median >= triangle {
			t.Errorf("%s over %d references allocates %d B in the median warm call, not below one triangle (%d B)",
				tc.name, tc.n, median, triangle)
		}
	}
}

// TestConcurrentEntryPointsSharePool runs DisambiguateRefsCtx, MergeProfile
// and NameAffinity concurrently on one engine. They share the triangle
// pool, so a triangle recycled while still in use would change a result
// (and, under -race, report a data race); every result must equal the
// serial one.
func TestConcurrentEntryPointsSharePool(t *testing.T) {
	w := testWorld(t)
	e := newTestEngine(t, w, false)
	refs := e.RefsForName("Wei Wang")
	small := e.RefsForName("Bin Yu")
	type results struct {
		groups, smallGroups [][]reldb.TupleID
		prof                []MergeStep
		aff                 float64
	}
	compute := func() (r results, err error) {
		if r.groups, err = e.DisambiguateRefsCtx(context.Background(), refs); err != nil {
			return r, err
		}
		if r.smallGroups, err = e.DisambiguateRefsCtx(context.Background(), small); err != nil {
			return r, err
		}
		r.prof = e.MergeProfile(refs)
		r.aff = e.NameAffinity("Wei Wang", "Bin Yu")
		return r, nil
	}
	want, err := compute()
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, rounds = 4, 3
	got := make([]results, goroutines*rounds)
	errs := make([]error, goroutines*rounds)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got[g*rounds+r], errs[g*rounds+r] = compute()
			}
		}(g)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("concurrent run %d differs from the serial run:\n%+v\nwant\n%+v", i, got[i], want)
		}
	}
}
