// Work golden: the algorithmic work of one paper-scale sweep, pinned
// exactly. It runs the repository benchmark's sweep — dblp.DefaultConfig's
// world (18,083 references), trained on 1000 + 1000 pairs drawn with seed
// 1, then DisambiguateAllCtx(MinRefs: 2) — and compares counts that do not
// depend on the machine: plan size, the (pair, path) results the
// similarity kernel scores, clustering merges and stale heap pops, the
// training-set size, a hash of every group, the number of neighborhood
// entries propagation emits with a hash of every one of them, and the
// number of entries and path slots it physically stores. A change that does more, less or
// different work fails here until the golden is regenerated with
//
//	go test -run TestGoldenWork -update
//
// and CHANGES.md explains the new numbers.
package distinct_test

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"distinct"
	"distinct/internal/dblp"
	"distinct/internal/prop"
	"distinct/internal/reldb"
	"distinct/internal/sim"
)

const goldenWorkPath = "testdata/golden_work.json"

// goldenWork is the committed shape. Work holds the registry counters the
// sweep's work is priced by, plus the two counts distinctbench derives:
// sim.pairs (Σ n(n−1)/2 over the swept names) and trainset.pairs
// (positive + negative training pairs).
type goldenWork struct {
	Work       map[string]int64 `json:"work"`
	GroupsHash string           `json:"groups_hash"`
	// NeighborhoodEntries counts every reference's neighbor tuples, read
	// through the expansion of grouped neighborhoods.
	NeighborhoodEntries int64 `json:"neighborhood_entries"`
	// NeighborhoodStored counts the entries held in memory: len(Keys) over
	// distinct backing windows, so a window a donor lends to its key group
	// counts once per extractor. A flat neighborhood stores one entry per
	// neighbor, a grouped one a record per group and per exception.
	NeighborhoodStored int64 `json:"neighborhood_stored"`
	// NeighborhoodSlots counts the path slots held in memory, once per
	// distinct stored value (prop.Neighborhoods.Slots): one per path whose
	// records the value holds itself, none for an empty path or one read
	// from a donor.
	NeighborhoodSlots int64 `json:"neighborhood_slots"`
	// NeighborhoodsHash is an FNV hash over every reference's every path,
	// read through the expansion: each key and the exact bits of its Fwd
	// and Bwd, then SumFwd's bits.
	NeighborhoodsHash string `json:"neighborhoods_hash"`
}

// workCounters are the exact registry counters the golden pins.
var workCounters = []string{
	"prop.csr_hops", "prop.csr_edges", "sim.pairs_scored", "sim.kernel_visits", "sim.index_postings", "sim.prefetch_shared",
	"cluster.runs", "cluster.merges", "cluster.heap_stale_pops", "cluster.pruned_below_minsim", "cluster.stat_merges",
}

// goldenWorkEngine opens and trains the work golden's engine on
// dblp.DefaultConfig's world, reporting to reg: 1000 + 1000 training pairs
// drawn with seed 1, the ambiguous names excluded.
func goldenWorkEngine(tb testing.TB, reg *distinct.Registry) *distinct.Engine {
	tb.Helper()
	w, err := dblp.Generate(dblp.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := distinct.Open(w.DB, distinct.Config{
		RefRelation: dblp.ReferenceRelation,
		RefAttr:     dblp.ReferenceAttr,
		SkipExpand:  []string{dblp.TitleAttr},
		Train: distinct.TrainOptions{
			NumPositive: 1000, NumNegative: 1000,
			Exclude: w.AmbiguousNames(), Seed: 1,
		},
		Metrics: reg,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.Train(); err != nil {
		tb.Fatal(err)
	}
	return eng
}

func goldenWorkRun(t *testing.T) goldenWork {
	t.Helper()
	reg := distinct.NewMetrics()
	eng := goldenWorkEngine(t, reg)
	res, err := eng.DisambiguateAllCtx(context.Background(), distinct.BatchOptions{MinRefs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incidents) != 0 {
		t.Fatalf("clean sweep produced %d incidents, first: %+v", len(res.Incidents), res.Incidents[0])
	}

	counters := reg.Snapshot().Counters
	got := goldenWork{Work: make(map[string]int64)}
	for _, name := range workCounters {
		got.Work[name] = counters[name]
	}
	got.Work["trainset.pairs"] = counters["trainset.positive"] + counters["trainset.negative"]
	var pairs int64
	for _, name := range eng.Names(2) {
		n := int64(len(eng.Refs(name)))
		pairs += n * (n - 1) / 2
	}
	got.Work["sim.pairs"] = pairs

	h := fnv.New64a()
	var b [4]byte
	for _, ng := range res.Split {
		h.Write([]byte(ng.Name))
		h.Write([]byte{0})
		for _, g := range ng.Groups {
			for _, r := range g {
				binary.LittleEndian.PutUint32(b[:], uint32(r))
				h.Write(b[:])
			}
			h.Write([]byte{1})
		}
	}
	got.GroupsHash = fmt.Sprintf("%016x", h.Sum64())

	// Every reference's neighborhoods, counted and hashed on fresh
	// extractors over one plan, a few thousand references each, so the
	// check never holds more than a slice of the database's neighborhoods
	// at once.
	db := eng.DB()
	plan := prop.CompileTrieCtx(context.Background(), db, prop.NewTrie(eng.Paths()), 0)
	refs := db.Relation(dblp.ReferenceRelation).TupleIDs()
	nh := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		nh.Write(buf[:])
	}
	// A grouped window's entries come out of AppendSegments group by
	// group; sorted by key they are the flat form.
	type entry struct {
		key reldb.TupleID
		fb  prop.FB
	}
	var segs []prop.Segment
	var entries []entry
	const chunk = 2048
	for lo := 0; lo < len(refs); lo += chunk {
		x := sim.New(plan, nil)
		windows := make(map[*reldb.TupleID]bool)
		values := make(map[*prop.Neighborhoods]bool)
		for _, r := range refs[lo:min(lo+chunk, len(refs))] {
			nbs := x.Neighborhoods(r)
			if !values[nbs] {
				values[nbs] = true
				got.NeighborhoodSlots += int64(nbs.Slots())
			}
			for p := range nbs.NumPaths() {
				nb := nbs.Path(p)
				if len(nb.Keys) > 0 && !windows[&nb.Keys[0]] {
					windows[&nb.Keys[0]] = true
					got.NeighborhoodStored += int64(len(nb.Keys))
				}
				segs, entries = nb.AppendSegments(segs[:0]), entries[:0]
				for _, sg := range segs {
					for k, t := range sg.Keys {
						fb := sg.Shared
						if sg.FBs != nil {
							fb = sg.FBs[k]
						}
						entries = append(entries, entry{t, fb})
					}
				}
				slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
				got.NeighborhoodEntries += int64(len(entries))
				for _, e := range entries {
					word(uint64(e.key))
					word(math.Float64bits(e.fb.Fwd))
					word(math.Float64bits(e.fb.Bwd))
				}
				word(math.Float64bits(nb.SumFwd))
			}
		}
	}
	got.NeighborhoodsHash = fmt.Sprintf("%016x", nh.Sum64())
	return got
}

func TestGoldenWork(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale sweep")
	}
	if raceEnabled {
		// The work is the same with or without the detector, which slows
		// this sweep twentyfold; TestGoldenE2E runs the sweep under -race.
		t.Skip("paper-scale sweep: its work does not depend on -race")
	}
	got := goldenWorkRun(t)

	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWorkPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", goldenWorkPath)
		return
	}

	raw, err := os.ReadFile(goldenWorkPath)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	var want goldenWork
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden file is not valid JSON: %v", err)
	}
	if !reflect.DeepEqual(got.Work, want.Work) {
		for name, wantV := range want.Work {
			if gotV, ok := got.Work[name]; !ok || gotV != wantV {
				t.Errorf("work %s = %d, want %d", name, gotV, wantV)
			}
		}
		for name, v := range got.Work {
			if _, ok := want.Work[name]; !ok {
				t.Errorf("work %s = %d is not in the golden file (run -update)", name, v)
			}
		}
	}
	if got.GroupsHash != want.GroupsHash {
		t.Errorf("groups hash = %s, want %s", got.GroupsHash, want.GroupsHash)
	}
	if got.NeighborhoodEntries != want.NeighborhoodEntries {
		t.Errorf("neighborhood entries = %d, want %d", got.NeighborhoodEntries, want.NeighborhoodEntries)
	}
	if got.NeighborhoodStored != want.NeighborhoodStored {
		t.Errorf("neighborhood stored = %d, want %d", got.NeighborhoodStored, want.NeighborhoodStored)
	}
	if got.NeighborhoodSlots != want.NeighborhoodSlots {
		t.Errorf("neighborhood slots = %d, want %d", got.NeighborhoodSlots, want.NeighborhoodSlots)
	}
	if got.NeighborhoodsHash != want.NeighborhoodsHash {
		t.Errorf("neighborhoods hash = %s, want %s", got.NeighborhoodsHash, want.NeighborhoodsHash)
	}
}
