package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runOK runs one command line and returns its report.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("barriersim %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// wantLines fails unless out contains every line fragment in want.
func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Fatalf("output lacks %q:\n%s", w, out)
		}
	}
}

func TestRunMode(t *testing.T) {
	out := runOK(t, "-p", "64", "-degree", "4", "-episodes", "5", "-warmup", "2")
	wantLines(t, out,
		"tree: classic degree=4 levels=3 counters=21",
		"workload: σ=250µs (12.5·t_c), slack=0s, 5 episodes after 2 warm-up",
		"mean sync delay: ", "p95 sync delay:  ", "last proc depth: ",
		"analytic model:  ")
	if explicit := runOK(t, "run", "-p", "64", "-degree", "4", "-episodes", "5", "-warmup", "2"); explicit != out {
		t.Fatalf("explicit run mode differs from the default:\n%s\nvs\n%s", explicit, out)
	}

	out = runOK(t, "-p", "32", "-degree", "2", "-episodes", "5", "-placement", "ewma", "-replan", "2")
	wantLines(t, out, "placement: ewma, re-planned every 2 episodes", "mean sync delay: ")

	out = runOK(t, "-p", "16", "-degree", "2", "-episodes", "2", "-tree", "mcs", "-dynamic", "-trace")
	wantLines(t, out, "tree: mcs degree=2", "final episode timeline (one lane per counter):")
}

func TestModelMode(t *testing.T) {
	out := runOK(t, "model", "-p", "64", "-degree", "4", "-sigma", "100us")
	wantLines(t, out,
		"Algorithm 1: p=64, degree=4, L=3 levels, σ=100µs, t_c=20µs",
		"     S_0          3", "    last          1        (Eq. 5)",
		"synchronization delay (Eq. 8): ")
	if err := run([]string{"model", "-p", "60", "-degree", "4"}, &strings.Builder{}); err == nil {
		t.Fatal("model accepted a processor count that is not a full tree")
	}
}

func TestSweepMode(t *testing.T) {
	out := runOK(t, "sweep", "-p", "16", "-episodes", "3", "-workers", "1")
	wantLines(t, out,
		"p=16 σ=250µs (12.5·t_c) t_c=20µs episodes=3 tree=classic",
		"  degree  levels      sim delay    model delay",
		"simulated optimum: degree ", "model recommends:  degree ")
	if par := runOK(t, "sweep", "-p", "16", "-episodes", "3", "-workers", "2"); par != out {
		t.Fatalf("sweep output depends on -workers:\n%s\nvs\n%s", par, out)
	}
}

// TestRecordRunRoundTrip records a workload to a file and replays it:
// run takes p from the trace, and reports where its work times came from.
func TestRecordRunRoundTrip(t *testing.T) {
	for _, workload := range []string{"normal", "systemic", "evolving"} {
		rec := runOK(t, "record", "-p", "16", "-episodes", "5", "-workload", workload)
		wantLines(t, rec, "# barrier workload trace: 16 processors, 5 iterations\n")
		if n := strings.Count(rec, "\n"); n != 6 {
			t.Fatalf("%s: trace has %d lines, want a header and 5 rows", workload, n)
		}
		if again := runOK(t, "record", "-p", "16", "-episodes", "5", "-workload", workload); again != rec {
			t.Fatalf("%s: recording is not deterministic for one seed", workload)
		}

		path := filepath.Join(t.TempDir(), workload+".csv")
		if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
			t.Fatal(err)
		}
		out := runOK(t, "-tracefile", path, "-degree", "2", "-episodes", "5")
		wantLines(t, out,
			"tree: classic degree=2 levels=4 counters=15",
			"workload: trace p=16 iterations=5 from "+path+", slack=0s, 5 episodes after 20 warm-up")
	}

	sor := runOK(t, "record", "-p", "8", "-episodes", "2", "-workload", "sor", "-dx", "4", "-dy", "16")
	wantLines(t, sor, "# barrier workload trace: 8 processors, 2 iterations\n")
}

func TestRecordNeedsEpisodes(t *testing.T) {
	if err := run([]string{"record", "-p", "4", "-episodes", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("record with no episodes succeeded")
	}
}

func TestCommandLineErrors(t *testing.T) {
	for _, args := range [][]string{
		{"replay"},
		{"-p", "16", "sweep"},
		{"-tree", "heap"},
		{"sweep", "-tree", "ring", "-rings", "0"},
		{"record", "-workload", "bursty"},
		{"record", "-workload", "sor", "-p", "7"},
		{"-tracefile", filepath.Join(t.TempDir(), "missing.csv")},
		{"-placement", "oracle"},
		{"-p", "16", "-episodes", "2", "-tree", "ring", "-placement", "ewma"},
		{"-p", "16", "-episodes", "2", "-placement", "ewma", "-replan", "-3"},
	} {
		if err := run(args, &strings.Builder{}); err == nil {
			t.Errorf("barriersim %s succeeded, want an error", strings.Join(args, " "))
		}
	}
}

// TestTracefileNonFiniteIsAnError: a trace file holding NaN or +Inf is a
// bad input, reported as an error, not a panic inside the event queue.
func TestTracefileNonFiniteIsAnError(t *testing.T) {
	for _, bad := range []string{"NaN", "+Inf"} {
		path := filepath.Join(t.TempDir(), "bad.csv")
		if err := os.WriteFile(path, []byte("1e-3,2e-3\n3e-3,"+bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trace holding %s: panic %v", bad, r)
				}
			}()
			return run([]string{"-tracefile", path, "-degree", "2", "-episodes", "2"}, &strings.Builder{})
		}()
		if err == nil {
			t.Errorf("trace holding %s replayed without an error", bad)
		}
	}
}

func TestBuilderKinds(t *testing.T) {
	for _, kind := range []string{"classic", "mcs", "ring"} {
		build, err := treeFlags{kind: kind, rings: 2}.builder()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		tree := build(16, 4)
		if tree.P != 16 {
			t.Errorf("%s: built tree for %d processors", kind, tree.P)
		}
	}
	if _, err := (treeFlags{kind: "heap"}).builder(); err == nil {
		t.Error("unknown kind must error")
	}
	if _, err := (treeFlags{kind: "ring", rings: 0}).builder(); err == nil {
		t.Error("zero rings must error")
	}
}

func TestRingBuilderDistributesRemainder(t *testing.T) {
	build, err := treeFlags{kind: "ring", rings: 3}.builder()
	if err != nil {
		t.Fatal(err)
	}
	if tree := build(10, 2); tree.P != 10 {
		t.Fatalf("ring tree covers %d processors, want 10", tree.P)
	}
}
