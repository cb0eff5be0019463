package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestRun drives the shipped demo: run fails on any client stall or error,
// and the table must hold one release for each of the 100 episodes.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.Contains(report, fmt.Sprintf("all %d clients completed %d episodes\n", workers, episodes)) {
		t.Fatalf("no completion line in the report:\n%s", report)
	}
	next := 0
	for _, line := range strings.Split(report, "\n") {
		var ep, deg int
		if n, _ := fmt.Sscanf(line, "%d %d", &ep, &deg); n < 2 {
			continue
		}
		if ep != next {
			t.Fatalf("release for episode %d, want %d:\n%s", ep, next, report)
		}
		next++
	}
	if next != episodes {
		t.Fatalf("%d episodes released, want %d:\n%s", next, episodes, report)
	}
}
