package main

import (
	"bufio"
	"os"
	"strings"
)

// cpuModel returns the processor's model name from the first "model name"
// line of /proc/cpuinfo, e.g. "Intel(R) Xeon(R) Platinum 8375C CPU @
// 2.90GHz", or "unknown" where there is no such line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, value, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}
