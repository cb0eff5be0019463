package barriersim

import (
	"testing"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// straggler2 is the PR-6 σ-aware placement baseline workload: p=15, two
// systemic stragglers at +500µs and +300µs over σ=20µs noise.
func straggler2() loadmodel.Generator {
	offsets := make([]float64, 15)
	offsets[3], offsets[11] = 500e-6, 300e-6
	return loadmodel.StaticSkew{
		Base:    loadmodel.IID{N: 15, Dist: stats.Normal{Sigma: 20e-6}},
		Offsets: offsets,
	}
}

// TestRunPlacementPolicyComparison reproduces the 4× σ-aware placement
// result with the policy engine in the loop instead of a hand-placed
// tree: on the 2-straggler systemic workload, every predictive policy
// must converge to stragglers-shallowest and land near the hand-placed
// 20µs mean sync delay, against the static baseline's ~80µs.
func TestRunPlacementPolicyComparison(t *testing.T) {
	const (
		warmup   = 20
		episodes = 300
		seed     = 7
	)
	tree := topology.NewMCS(15, 2)
	gen := straggler2()
	cfg := Config{}

	static := RunPlanned(topology.NewMCS, cfg, gen, loadmodel.NewController(5, 0, tree.Degree, nil), warmup, episodes, seed)
	if static.Rebuilds != 0 {
		t.Fatalf("static run rebuilt %d times", static.Rebuilds)
	}
	for _, name := range []string{"reactive", "ewma", "trend", "ewma-hys"} {
		mk, ok := loadmodel.PolicyByName(name)
		if !ok {
			t.Fatalf("no policy %q", name)
		}
		pr := RunPlanned(topology.NewMCS, cfg, gen, loadmodel.NewController(5, 0, tree.Degree, mk()), warmup, episodes, seed)
		ratio := static.MeanSync / pr.MeanSync
		t.Logf("%-9s mean sync %7.1fµs (static %.1fµs, %.2fx), %d rebuilds",
			name, pr.MeanSync*1e6, static.MeanSync*1e6, ratio, pr.Rebuilds)
		if pr.Rebuilds < 1 {
			t.Errorf("%s: never rebuilt the tree", name)
		}
		if ratio < 3 {
			t.Errorf("%s: mean sync %.3gs vs static %.3gs, want ≥3x improvement",
				name, pr.MeanSync, static.MeanSync)
		}
	}
}

// TestRunPlacementEWMAStability drives the policies with noise on the
// same scale as the systemic skew (σ=150µs over a 0–400µs linear lag
// ramp). Reactive re-ranks on every noisy episode, so its placements
// chase noise; EWMA averages the skew out of the noise. EWMA must not do
// worse than reactive on mean sync delay, and hysteresis must cut the
// rebuild count well below reactive's while staying in the same delay
// band.
func TestRunPlacementEWMAStability(t *testing.T) {
	const (
		p        = 15
		warmup   = 30
		episodes = 400
		seed     = 11
	)
	tree := topology.NewMCS(p, 2)
	gen := loadmodel.StaticSkew{
		Base:    loadmodel.IID{N: p, Dist: stats.Normal{Sigma: 150e-6}},
		Offsets: loadmodel.LinearOffsets(p, 400e-6),
	}
	cfg := Config{}

	run := func(name string) PolicyRun {
		mk, ok := loadmodel.PolicyByName(name)
		if !ok {
			t.Fatalf("no policy %q", name)
		}
		pr := RunPlanned(topology.NewMCS, cfg, gen, loadmodel.NewController(2, 0, tree.Degree, mk()), warmup, episodes, seed)
		t.Logf("%-9s mean sync %7.1fµs, %d rebuilds", name, pr.MeanSync*1e6, pr.Rebuilds)
		return pr
	}
	reactive := run("reactive")
	ewma := run("ewma")
	hys := run("ewma-hys")

	if ewma.MeanSync > reactive.MeanSync*1.02 {
		t.Errorf("ewma mean sync %.3gs worse than reactive %.3gs under noise",
			ewma.MeanSync, reactive.MeanSync)
	}
	if hys.Rebuilds*2 >= reactive.Rebuilds {
		t.Errorf("hysteresis rebuilt %d times vs reactive %d, want <half",
			hys.Rebuilds, reactive.Rebuilds)
	}
	if hys.MeanSync > ewma.MeanSync*1.10 {
		t.Errorf("hysteresis mean sync %.3gs strays >10%% from ewma %.3gs",
			hys.MeanSync, ewma.MeanSync)
	}
}

// BenchmarkPlacementPolicies times a policy-driven simulation run and
// reports the achieved mean sync delay as simsync-ns/op beside the cost.
// The quality gap itself is guarded by TestRunPlacementPolicyComparison,
// which runs the same deterministic simulation and fails below a 3×
// static/policy ratio.
func BenchmarkPlacementPolicies(b *testing.B) {
	tree := topology.NewMCS(15, 2)
	for _, name := range []string{"static", "reactive", "ewma"} {
		mk, ok := loadmodel.PolicyByName(name)
		if !ok {
			b.Fatalf("no policy %q", name)
		}
		b.Run(name, func(b *testing.B) {
			var sync float64
			for i := 0; i < b.N; i++ {
				var pol loadmodel.PlacementPolicy
				if name != "static" {
					pol = mk()
				}
				pr := RunPlanned(topology.NewMCS, Config{}, straggler2(), loadmodel.NewController(5, 0, tree.Degree, pol), 20, 100, 7)
				sync = pr.MeanSync
			}
			b.ReportMetric(sync*1e9, "simsync-ns/op")
		})
	}
}

// TestRankPlacementSim measures the σ-aware placement rule on a fixed
// tree: under systemic imbalance (the same two processors late every
// episode), relabelling the MCS tree in loadmodel.Rank's laggiest-first
// order, shallowest slot first, must beat the id-order placement on mean
// sync delay, because the straggler that releases the barrier climbs one
// counter instead of a full leaf-to-root path.
func TestRankPlacementSim(t *testing.T) {
	const (
		p        = 15
		episodes = 300
		sigma    = 20e-6
		lagBig   = 500e-6
	)
	lags := make([]float64, p)
	lags[3], lags[11] = lagBig, 0.6*lagBig // systemic stragglers

	tree := topology.NewMCS(p, 2)
	placed, err := tree.PlaceByDepth(loadmodel.Rank(lags))
	if err != nil {
		t.Fatal(err)
	}
	if err := placed.Validate(); err != nil {
		t.Fatal(err)
	}

	run := func(tr *topology.Tree) float64 {
		sim := New(tr, Config{})
		rng := stats.NewRNG(7)
		var delays []float64
		for e := 0; e < episodes; e++ {
			arrivals := make([]float64, p)
			for i := range arrivals {
				arrivals[i] = rng.NormFloat64()*sigma + lags[i]
			}
			delays = append(delays, sim.Episode(arrivals).SyncDelay)
		}
		return stats.Mean(delays)
	}

	naive := run(tree)
	aware := run(placed)
	t.Logf("mean sync delay: naive %.3gs, σ-aware %.3gs", naive, aware)
	if aware >= naive {
		t.Fatalf("σ-aware placement (%.3gs) did not beat naive placement (%.3gs)", aware, naive)
	}
}
