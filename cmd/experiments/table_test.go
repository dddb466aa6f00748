package main

import (
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestAllSelection runs the command with no experiment flags, which
// assumes -all, and checks the headings it prints: the paper's
// experiments and the ablation, in print order.
func TestAllSelection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the paper's experiments on the default world")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "=== ") {
			got = append(got, line)
		}
	}
	want := []string{
		"=== Table 1: names corresponding to multiple authors ===",
		"=== Section 5 timing: training pipeline ===",
		"=== Table 2: accuracy for distinguishing references ===",
		"=== Figure 4: accuracy and f-measure of six variants ===",
		"=== Ablation: cluster-measure design choices (beyond the paper) ===",
		"=== Figure 5: groups of references of Wei Wang ===",
	}
	if !slices.Equal(got, want) {
		t.Errorf("headings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
