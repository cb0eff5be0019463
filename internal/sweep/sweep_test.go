package sweep

import (
	"encoding/json"
	"runtime"
	"testing"

	"softbarrier/internal/stats"
)

// pointResult is a point result rendered to JSON for byte comparison.
type pointResult struct {
	Index int
	Mean  float64
	Draws []float64
}

// simulate is a miniature stochastic "simulation": a few PRNG draws whose
// values depend only on the seed, plus deliberate scheduling churn so
// parallel runs interleave differently every time.
func simulate(i int, seed uint64) pointResult {
	r := stats.NewRNG(seed)
	res := pointResult{Index: i}
	for k := 0; k < 8; k++ {
		v := r.Float64()
		res.Draws = append(res.Draws, v)
		res.Mean += v / 8
		runtime.Gosched()
	}
	return res
}

func testSpec(n int) Spec {
	return Spec{Points: n, BaseSeed: 42}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestPointSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for _, base := range []uint64{0, 1, 1995} {
		for i := 0; i < 100; i++ {
			s := PointSeed(base, i)
			if seen[s] {
				t.Fatalf("PointSeed(%d, %d) = %#x collides", base, i, s)
			}
			seen[s] = true
			if s != PointSeed(base, i) {
				t.Fatalf("PointSeed(%d, %d) not stable", base, i)
			}
		}
	}
}

// TestDeterminismAcrossWorkers is the ISSUE's hard requirement: identical
// byte-level results for workers = 1, 4 and GOMAXPROCS.
func TestDeterminismAcrossWorkers(t *testing.T) {
	spec := testSpec(37)
	want := mustJSON(t, Run[pointResult](nil, spec, simulate))
	cases := []struct {
		name    string
		workers int
	}{
		{"sequential-engine", 1},
		{"workers-4", 4},
		{"gomaxprocs", runtime.GOMAXPROCS(0)},
		{"oversubscribed", 2 * spec.Points},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for rep := 0; rep < 3; rep++ {
				got := mustJSON(t, Run(&Engine{Workers: tc.workers}, spec, simulate))
				if got != want {
					t.Fatalf("workers=%d rep=%d: results differ from sequential run\n got %s\nwant %s",
						tc.workers, rep, got, want)
				}
			}
		})
	}
}

func TestNilEngineAndEmptySpec(t *testing.T) {
	if got := Run[int](nil, Spec{}, func(i int, _ uint64) int { return i }); len(got) != 0 {
		t.Fatalf("empty spec returned %v", got)
	}
	got := Run[int](nil, Spec{Points: 3}, func(i int, _ uint64) int { return i * i })
	if got[0] != 0 || got[1] != 1 || got[2] != 4 {
		t.Fatalf("nil engine results %v", got)
	}
}

func TestProgressReporting(t *testing.T) {
	spec := testSpec(9)
	var snaps []Progress
	Run(&Engine{Workers: 3, Report: func(p Progress) { snaps = append(snaps, p) }}, spec, simulate)
	if len(snaps) != spec.Points {
		t.Fatalf("%d progress reports for %d points", len(snaps), spec.Points)
	}
	last := snaps[len(snaps)-1]
	if last.Done != spec.Points || last.Total != spec.Points {
		t.Fatalf("final progress %+v", last)
	}
	for k := 1; k < len(snaps); k++ {
		if snaps[k].Done != snaps[k-1].Done+1 {
			t.Fatalf("progress not monotone: %+v -> %+v", snaps[k-1], snaps[k])
		}
	}
}

// TestProgressETAFinite checks that computed points produce a sane
// extrapolation: never negative, never NaN/Inf (which a divide-by-zero on
// the first tick used to produce), and zero on the final snapshot.
func TestProgressETAFinite(t *testing.T) {
	spec := testSpec(8)
	var snaps []Progress
	Run(&Engine{Workers: 1, Report: func(p Progress) { snaps = append(snaps, p) }}, spec, simulate)
	for k, p := range snaps {
		if p.Remaining < 0 {
			t.Fatalf("snapshot %d: negative Remaining %v", k, p.Remaining)
		}
	}
	if last := snaps[len(snaps)-1]; last.Remaining != 0 {
		t.Fatalf("final snapshot %+v has nonzero Remaining", last)
	}
}

func TestPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic was swallowed")
		}
	}()
	Run(&Engine{Workers: 4}, testSpec(16), func(i int, seed uint64) pointResult {
		if i == 7 {
			panic("boom")
		}
		return simulate(i, seed)
	})
}
