package main

import (
	"strconv"
	"strings"
	"testing"
)

// TestRun drives the shipped two-leaf fleet: run fails on any client error,
// and every release the tables print must carry the sequential fold of
// its episode.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	rows := 0
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) < 5 {
			continue
		}
		ep, err := strconv.Atoi(f[0])
		if err != nil {
			continue
		}
		fold, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		if want := expectedSum(ep); fold != want {
			t.Fatalf("episode %d released fold %v, sequential fold %v", ep, fold, want)
		}
		rows++
	}
	if rows != 2*episodes {
		t.Fatalf("%d releases in the tables, want %d for 2 leaves:\n%s", rows, 2*episodes, report)
	}
}
