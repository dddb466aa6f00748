package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// aaRuns is the A/A mode: it runs each selected workload n times, each run
// a child process of this binary with the next seed, alternating the
// workload order between rounds, and prints every metric's median,
// quartiles and spread (the quartile distance as a share of the median).
// Two such sets on one machine fix the regression bounds in BENCHMARK.json.
func aaRuns(c config, n int) int {
	names, err := selectWorkloads(c.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "distinctbench:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "distinctbench:", err)
		return 2
	}
	machineOf(c).writeText(os.Stdout)
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for round := 0; round < n; round++ {
		order := slices.Clone(names)
		if round%2 == 1 {
			slices.Reverse(order)
		}
		seed := c.seed + int64(round)
		for _, w := range order {
			args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64)}
			if c.traceDir != "" {
				args = append(args, "-trace", c.traceDir)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "distinctbench: %s seed %d: %v\n", w, seed, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
				fmt.Fprintf(os.Stderr, "distinctbench: %s seed %d: result line: %v\n", w, seed, err)
				return 1
			}
			if !line.Correct {
				fmt.Fprintf(os.Stderr, "distinctbench: %s seed %d: incorrect answers\n", w, seed)
				return 1
			}
			if values[w] == nil {
				values[w] = map[string][]float64{}
			}
			for k, m := range line.Metrics {
				values[w][k] = append(values[w][k], m.Value)
				units[k] = m.Unit
			}
			fmt.Printf("# round %d %s seed %d done\n", round, w, seed)
		}
	}
	for _, w := range names {
		for _, k := range sortedKeys(values[w]) {
			v := values[w][k]
			med := median(v)
			q1, q3 := quartiles(v)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			fmt.Printf("%s %s median=%s q1=%s q3=%s spread=%.4f n=%d %s\n",
				w, k, formatValue(med), formatValue(q1), formatValue(q3), spread, len(v), units[k])
			fmt.Printf("#   values %v\n", v)
		}
	}
	return 0
}
