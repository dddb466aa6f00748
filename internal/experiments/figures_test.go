package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"distinct/internal/dblp"
)

var updateExpansion = flag.Bool("update", false, "rewrite testdata/expansion.golden from the current ExpansionAblation rows")

// TestReferenceFigures rebuilds the harness cmd/experiments builds with its
// default flags (dblp.DefaultConfig, seed 1) and holds its outputs to the
// checked-in references: Figure 4 and the cluster-measure ablation through
// the same CSV writer, byte for byte against results/figure4.csv and
// results/ablation.csv, and the attribute-expansion ablation's rows at full
// float precision against testdata/expansion.golden (-update rewrites it).
func TestReferenceFigures(t *testing.T) {
	world := dblp.DefaultConfig()
	world.Seed = 1
	h, err := NewHarness(Options{World: world, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, fig := range []struct {
		file string
		rows func() ([]Figure4Row, error)
	}{
		{"figure4.csv", h.Figure4},
		{"ablation.csv", h.Ablation},
	} {
		rows, err := fig.rows()
		if err != nil {
			t.Fatalf("%s: %v", fig.file, err)
		}
		var got bytes.Buffer
		if err := WriteFigure4CSV(&got, rows); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the reference:\n got:\n%s\nwant:\n%s", fig.file, got.Bytes(), want)
		}
	}

	rows, err := h.ExpansionAblation()
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		a := r.Average
		fmt.Fprintf(&got, "%s\t%d\t%s\t%s\t%s\t%s\n", r.Label, r.NumPaths, g(a.Precision), g(a.Recall), g(a.F1), g(a.Accuracy))
	}
	path := filepath.Join("testdata", "expansion.golden")
	if *updateExpansion {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ExpansionAblation rows differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
