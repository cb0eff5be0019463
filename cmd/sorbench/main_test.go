package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// small is the grid every test solves.
var small = []string{"-p", "4", "-dx", "8", "-dy", "32"}

// runOK runs one command line on the small grid and returns its report.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(slices.Concat(small, args), &out); err != nil {
		t.Fatalf("sorbench %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

var barriers = []string{"central", "tree", "mcs", "dynamic", "adaptive", "dissemination", "tournament"}

// TestEveryBarrierAndMethod: run fails unless the parallel result equals
// the sequential solver's, on every barrier under both methods; and the
// report and the -stats config name the degree the barrier ran at: -degree
// for a fixed tree, the adaptive barrier's own, none for the rest.
func TestEveryBarrierAndMethod(t *testing.T) {
	for _, b := range barriers {
		for _, m := range []string{"jacobi", "sor"} {
			out := runOK(t, "-barrier", b, "-method", m, "-stats", "-")
			if !strings.Contains(out, "result verified against sequential solver (checksum ") {
				t.Fatalf("-barrier %s -method %s: no verified checksum:\n%s", b, m, out)
			}
			want := map[string]string{"tree": "4", "mcs": "4", "dynamic": "4"}[b]
			if b == "adaptive" {
				a := adaptiveDegree.FindStringSubmatch(out)
				if a == nil {
					t.Fatalf("-barrier adaptive -method %s: no adaptive line:\n%s", m, out)
				}
				want = a[1]
			}
			if header, config := reportedDegrees(t, out); header != want || config != want {
				t.Fatalf("-barrier %s -method %s: report names degree %q, -stats config %q, want %q:\n%s", b, m, header, config, want, out)
			}
		}
	}
}

var (
	headerDegree   = regexp.MustCompile(`barrier=\S+(?: degree=(\d+))?\n`)
	adaptiveDegree = regexp.MustCompile(`adaptive barrier: degree (\d+),`)
)

// reportedDegrees returns the degree a run's report header names and the
// one its -stats - config records, each "" when there is none.
func reportedDegrees(t *testing.T, out string) (header, config string) {
	t.Helper()
	m := headerDegree.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no report header:\n%s", out)
	}
	_, js, ok := strings.Cut(out, "\n{")
	if !ok {
		t.Fatalf("no stats dump:\n%s", out)
	}
	var dump struct{ Config map[string]any }
	if err := json.Unmarshal([]byte("{"+js), &dump); err != nil {
		t.Fatalf("stats dump: %v\n%s", err, out)
	}
	if d, ok := dump.Config["degree"]; ok {
		config = fmt.Sprint(d)
	}
	return m[1], config
}

// TestConvergeNeedsAllReduce: -eps folds the residual through AllReduce,
// so only the barriers that carry one accept it.
func TestConvergeNeedsAllReduce(t *testing.T) {
	carries := map[string]bool{"tree": true, "mcs": true, "dynamic": true, "adaptive": true}
	for _, b := range barriers {
		args := slices.Concat(small, []string{"-barrier", b, "-method", "sor", "-eps", "1e-5"})
		var out strings.Builder
		err := run(args, &out)
		switch {
		case carries[b] && err != nil:
			t.Errorf("-barrier %s refused -eps: %v", b, err)
		case carries[b] && !strings.Contains(out.String(), "converged at sweep "):
			t.Errorf("-barrier %s -eps: no convergence line:\n%s", b, out.String())
		case !carries[b] && !errors.As(err, new(usageError)):
			t.Errorf("-barrier %s -eps: err = %v, want a usage error", b, err)
		}
	}
}

// TestStatsEpisodes: under jacobi every iteration is one barrier episode,
// and -stats - dumps each one.
func TestStatsEpisodes(t *testing.T) {
	out := runOK(t, "-stats", "-")
	_, js, ok := strings.Cut(out, "\n{")
	if !ok {
		t.Fatalf("no stats dump:\n%s", out)
	}
	var dump struct {
		Config   struct{ Iters int }
		Episodes []json.RawMessage
	}
	if err := json.Unmarshal([]byte("{"+js), &dump); err != nil {
		t.Fatalf("stats dump: %v\n%s", err, out)
	}
	if len(dump.Episodes) != dump.Config.Iters || dump.Config.Iters != 200 {
		t.Fatalf("%d episodes for %d iterations, want 200 of each", len(dump.Episodes), dump.Config.Iters)
	}
}
