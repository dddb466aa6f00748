package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from the current output")

// runMainEnv, when set, makes the test binary run the command itself, so
// the tests below can drive main with real flags in a child process.
const runMainEnv = "EXPERIMENTS_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// deterministicFlags selects every experiment whose output is a pure
// function of the world: all but -timing and -scaling, which print wall
// times.
var deterministicFlags = []string{
	"-table1", "-table2", "-figure4", "-figure5", "-ablation", "-noise",
	"-expansion", "-citations", "-seeds", "-trainsize", "-music",
}

// TestDeterministicOutput runs every deterministic experiment on the
// default world, with CSV and DOT output into a scratch directory, and
// holds stdout byte for byte to testdata/stdout.golden (-update rewrites
// it): each experiment's heading, text and CSV notice in its place. Each
// CSV and the DOT file must also equal the checked-in reference in
// results/.
func TestDeterministicOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every deterministic experiment on the default world")
	}
	dir := t.TempDir()
	args := append([]string{"-csv", "csv", "-dot", "figure5.dot"}, deterministicFlags...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("experiments %v: %v\n%s", args, err, stderr.Bytes())
	}

	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	results := filepath.Join("..", "..", "results")
	for _, file := range []string{
		"csv/table1.csv", "csv/table2.csv", "csv/figure4.csv", "csv/ablation.csv",
		"csv/noise.csv", "csv/seeds.csv", "csv/trainsize.csv", "figure5.dot",
	} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Error(err)
			continue
		}
		want, err := os.ReadFile(filepath.Join(results, filepath.Base(file)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from results/%s", file, filepath.Base(file))
		}
	}
}
