package barriersim

import (
	"runtime"
	"testing"

	"softbarrier/internal/stats"
	"softbarrier/internal/sweep"
	"softbarrier/internal/topology"
)

func TestDegreeCandidates(t *testing.T) {
	got := DegreeCandidates(64)
	want := []int{2, 4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("candidates %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidates %v, want %v", got, want)
		}
	}
	got56 := DegreeCandidates(56)
	if got56[len(got56)-1] != 56 {
		t.Fatalf("candidates for 56 must end with the flat barrier: %v", got56)
	}
}

func TestOptimalDegreeIsFourAtZeroSigma(t *testing.T) {
	// Fig. 3, σ = 0 column: degree 4 is optimal for every system size.
	for _, p := range []int{64, 256} {
		best, speedup, _ := OptimalDegree(p, topology.NewClassic, Config{}, stats.Degenerate{V: 0}, 1, 1)
		if best.Degree != 4 {
			t.Errorf("p=%d: optimal degree %d at σ=0, want 4", p, best.Degree)
		}
		if speedup != 1 {
			t.Errorf("p=%d: speedup vs 4 = %v, want 1", p, speedup)
		}
	}
}

func TestOptimalDegreeGrowsWithSigma(t *testing.T) {
	// Fig. 3 rows: the optimal degree increases with load imbalance.
	p := 64
	prevBest := 0
	for _, sigma := range []float64{0, 6.2 * tc, 25 * tc} {
		best, _, _ := OptimalDegree(p, topology.NewClassic, Config{}, stats.Normal{Sigma: sigma}, 40, 3)
		if best.Degree < prevBest {
			t.Errorf("σ=%v: optimal degree %d dropped below %d", sigma, best.Degree, prevBest)
		}
		prevBest = best.Degree
	}
	if prevBest < 16 {
		t.Errorf("optimal degree at σ=25t_c is %d, expected a wide tree", prevBest)
	}
}

func TestFlatBarrierOptimalAtLargeSigma(t *testing.T) {
	// Paper: "when 64 processors are distributed with a standard deviation
	// of 25 t_c, a single counter yields the smallest synchronization
	// delay".
	best, speedup, _ := OptimalDegree(64, topology.NewClassic, Config{}, stats.Normal{Sigma: 25 * tc}, 60, 5)
	if best.Degree < 32 {
		t.Errorf("optimal degree %d at σ=25t_c, want ≥32", best.Degree)
	}
	if speedup < 1 {
		t.Errorf("speedup vs degree 4 = %v, want ≥ 1", speedup)
	}
}

func TestBestAndDelayOf(t *testing.T) {
	rs := []DegreeResult{{Degree: 2, MeanSync: 5}, {Degree: 4, MeanSync: 3}, {Degree: 8, MeanSync: 3}}
	if b := Best(rs); b.Degree != 8 {
		t.Errorf("Best picked degree %d, want 8 (ties to larger)", b.Degree)
	}
	if d, ok := DelayOf(rs, 8); !ok || d != 3 {
		t.Error("DelayOf(8) wrong")
	}
	if _, ok := DelayOf(rs, 16); ok {
		t.Error("DelayOf missing degree should report false")
	}
}

func TestBestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Best(nil)
}

func TestSweepPairsRandomStreams(t *testing.T) {
	// Same seed must give identical results on repeat (common random
	// numbers across degrees and runs).
	a := DegreeSweep(nil, 64, topology.NewClassic, Config{}, stats.Normal{Sigma: 5 * tc}, 10, 7)
	b := DegreeSweep(nil, 64, topology.NewClassic, Config{}, stats.Normal{Sigma: 5 * tc}, 10, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDegreeSweepOnMatchesSequential(t *testing.T) {
	// The engine-backed sweep must be bit-identical to the sequential one
	// for every worker count.
	sequential := DegreeSweep(nil, 64, topology.NewClassic, Config{}, stats.Normal{Sigma: 5 * tc}, 10, 7)
	engines := []*sweep.Engine{
		{Workers: 1},
		{Workers: 4},
		{Workers: runtime.GOMAXPROCS(0)},
	}
	for n, eng := range engines {
		got := DegreeSweep(eng, 64, topology.NewClassic, Config{}, stats.Normal{Sigma: 5 * tc}, 10, 7)
		if len(got) != len(sequential) {
			t.Fatalf("engine %d: %d results, want %d", n, len(got), len(sequential))
		}
		for i := range got {
			if got[i] != sequential[i] {
				t.Fatalf("engine %d: result %d = %+v, want %+v", n, i, got[i], sequential[i])
			}
		}
	}
}
