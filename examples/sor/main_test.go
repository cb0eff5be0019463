package main

import (
	"strings"
	"testing"
)

// TestRun solves the shipped grid: run fails unless the parallel checksum
// equals the sequential solver's.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "result matches the sequential solver (checksum ") {
		t.Fatalf("no verified checksum in the report:\n%s", out.String())
	}
}
