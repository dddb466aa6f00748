package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"distinct/internal/dblp"
)

var updateExpansion = flag.Bool("update", false, "rewrite testdata/expansion.golden from the current ExpansionAblation rows")

// TestReferenceFigures rebuilds the harness cmd/experiments builds with its
// default flags (dblp.DefaultConfig, seed 1) and holds its outputs to the
// checked-in references: every CSV cmd/experiments writes except the
// wall-time scaling curve (Tables 1 and 2, Figure 4, the cluster-measure
// ablation and the noise, seed and training-size sweeps), byte for byte
// against results/, Figure 5 for "Wei Wang" as Graphviz DOT byte for byte
// against results/figure5.dot, and the attribute-expansion ablation's rows
// at full float precision against testdata/expansion.golden (-update
// rewrites it).
func TestReferenceFigures(t *testing.T) {
	world := dblp.DefaultConfig()
	world.Seed = 1
	h, err := NewHarness(Options{World: world, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	figure4CSV := func(rows func() ([]Figure4Row, error)) func(io.Writer) error {
		return func(w io.Writer) error {
			r, err := rows()
			if err != nil {
				return err
			}
			return WriteFigure4CSV(w, r)
		}
	}
	for _, fig := range []struct {
		file  string
		write func(io.Writer) error
	}{
		{"table1.csv", func(w io.Writer) error { return WriteTable1CSV(w, h.Table1()) }},
		{"table2.csv", func(w io.Writer) error {
			res, err := h.Table2()
			if err != nil {
				return err
			}
			return WriteTable2CSV(w, res)
		}},
		{"figure4.csv", figure4CSV(h.Figure4)},
		{"ablation.csv", figure4CSV(h.Ablation)},
		{"noise.csv", func(w io.Writer) error {
			rows, err := h.NoiseSensitivity(nil)
			if err != nil {
				return err
			}
			return WriteNoiseCSV(w, rows)
		}},
		{"seeds.csv", func(w io.Writer) error {
			sum, err := h.SeedSweep(nil)
			if err != nil {
				return err
			}
			return WriteSeedsCSV(w, sum)
		}},
		{"trainsize.csv", func(w io.Writer) error {
			rows, err := h.TrainSizeSensitivity(nil)
			if err != nil {
				return err
			}
			return WriteTrainSizeCSV(w, rows)
		}},
	} {
		var got bytes.Buffer
		if err := fig.write(&got); err != nil {
			t.Fatalf("%s: %v", fig.file, err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", fig.file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from the reference:\n got:\n%s\nwant:\n%s", fig.file, got.Bytes(), want)
		}
	}

	fig5, err := h.Figure5("Wei Wang")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "results", "figure5.dot"))
	if err != nil {
		t.Fatal(err)
	}
	if got := DOTFigure5(fig5); got != string(want) {
		t.Errorf("figure5.dot differs from the reference:\n got:\n%s\nwant:\n%s", got, want)
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
	want, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ExpansionAblation rows differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
