package cluster

import (
	"reflect"
	"testing"
)

// FuzzAgglomerate drives the flat engine and the map-based oracle with
// matrices, measures, and thresholds decoded from fuzz bytes, asserting
// bit-identical partitions and merge sequences plus the partition
// invariant. The dendrogram cut is checked against the direct run on the
// same input, and a gap run, falling back to the decoded threshold,
// against its two-run reference.
func FuzzAgglomerate(f *testing.F) {
	f.Add([]byte{4, 0, 2, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add([]byte{7, 3, 0, 255, 1, 254, 2, 253, 3, 252, 4, 251, 5, 250, 6})
	f.Add([]byte{2, 5, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%11 // 2..12 references
		meas := Measure(int(data[1]) % 6)
		minSim := float64(data[2]) / 255 * 0.2
		data = data[3:]
		byteAt := func(k int) float64 {
			if len(data) == 0 {
				return 0
			}
			return float64(data[k%len(data)]) / 255
		}
		m := NewMatrix(n)
		k := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				c := at(m, i, j)
				if j > i {
					c.R = byteAt(k)
					k++
				}
				c.WAB = byteAt(k)
				k++
				set(m, i, j, c)
			}
		}

		opts := Options{Measure: meas, MinSim: minSim}
		requireMatchesOracle(t, nil, m, opts, meas.String())
		gotOut := clustersOf(m, opts)

		// Partition invariant: every reference exactly once, members
		// ascending, clusters ordered by smallest member.
		seen := make([]bool, n)
		last := -1
		for _, cl := range gotOut {
			if len(cl) == 0 {
				t.Fatal("empty cluster")
			}
			if cl[0] <= last {
				t.Fatalf("clusters out of order: %v", gotOut)
			}
			last = cl[0]
			for i, x := range cl {
				if x < 0 || x >= n || seen[x] {
					t.Fatalf("bad member %d in %v", x, gotOut)
				}
				if i > 0 && cl[i-1] >= x {
					t.Fatalf("members not ascending: %v", cl)
				}
				seen[x] = true
			}
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("reference %d missing from %v", i, gotOut)
			}
		}

		// Dendrogram cut (with fallback) must match the direct run too.
		cutOpts := opts
		cutOpts.From = dendrogramOf(m, Options{Measure: meas})
		if cut := clustersOf(m, cutOpts); !reflect.DeepEqual(gotOut, cut) {
			t.Fatalf("dendrogram cut mismatch (min-sim %v)\ndirect %v\ncut    %v",
				minSim, gotOut, cut)
		}

		gapOpts := opts
		gapOpts.Stop = StopGap
		if got, want := clustersOf(m, gapOpts), gapReference(m, meas, minSim); !reflect.DeepEqual(want, got) {
			t.Fatalf("gap run mismatch (fallback min-sim %v)\nwant %v\ngot  %v", minSim, want, got)
		}
	})
}
