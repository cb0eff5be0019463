package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestRun runs the shipped estimate: run fails unless every worker stops on
// the same round, and the π it prints must be within eps of math.Pi.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	var round int
	if _, err := fmt.Sscanf(report, "8 workers converged together on round %d", &round); err != nil {
		t.Fatalf("no unanimous stop in the report (%v):\n%s", err, report)
	}
	var pi float64
	_, est, _ := strings.Cut(report, "π ≈ ")
	if _, err := fmt.Sscanf(est, "%g", &pi); err != nil {
		t.Fatalf("no estimate in the report (%v):\n%s", err, report)
	}
	if math.Abs(pi-math.Pi) >= eps {
		t.Fatalf("π ≈ %.15f is %.2g from math.Pi, want under %g", pi, math.Abs(pi-math.Pi), eps)
	}
}
