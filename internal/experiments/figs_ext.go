package experiments

import (
	"fmt"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// The EXT experiments go beyond the paper's figures: ablations and
// extensions that DESIGN.md calls out. EXT1 compares the paper's
// combining trees against the classic non-combining baselines its related
// work cites; EXT2 validates the fuzzy-barrier idle-time claim the paper
// imports from the authors' earlier work [13]; EXT3 demonstrates the
// run-time degree adaptation the conclusion proposes.

// ext1Cell is one σ row of the EXT1 comparison.
type ext1Cell struct {
	D4        float64
	Opt       float64
	OptDegree int
	Diss      float64
	Tour      float64
	Cent      float64
}

// Ext1 compares the optimal-degree combining tree against dissemination,
// tournament, central-counter and degree-4 barriers across the σ grid for
// 256 processors. Dissemination and tournament are insensitive to σ (their
// delay is always Θ(log₂ p) rounds after the last arrival), so combining
// trees win at both extremes: degree ≈ 4 under simultaneous arrival, wide
// trees under heavy imbalance.
func Ext1(o Options) *Table {
	t := &Table{
		ID:     "EXT1",
		Title:  "combining trees vs classic baselines, 256 procs (delay in ms)",
		Header: []string{"σ/tc", "tree d=4", "tree opt (d*)", "dissemination", "tournament", "central"},
	}
	const p = 256
	cells := grid(o, len(sigmaGrid),
		func(i int, seed uint64) ext1Cell {
			dist := stats.Normal{Sigma: sigmaGrid[i] * tc}
			sweep := barriersim.DegreeSweep(nil, p, topology.NewClassic, barriersim.Config{}, dist, o.Episodes, seed)
			best := barriersim.Best(sweep)
			d4, _ := barriersim.DelayOf(sweep, 4)
			diss := barriersim.RunBaselineIID(barriersim.Dissemination, p, tc, dist, o.Episodes, seed)
			tour := barriersim.RunBaselineIID(barriersim.Tournament, p, tc, dist, o.Episodes, seed)
			cent := barriersim.RunBaselineIID(barriersim.Central, p, tc, dist, o.Episodes, seed)
			return ext1Cell{D4: d4, Opt: best.MeanSync, OptDegree: best.Degree,
				Diss: diss.MeanSync, Tour: tour.MeanSync, Cent: cent.MeanSync}
		})
	for i, s := range sigmaGrid {
		c := cells[i]
		t.AddRow(fmt.Sprintf("%g", s), ms(c.D4),
			fmt.Sprintf("%s (%d)", ms(c.Opt), c.OptDegree),
			ms(c.Diss), ms(c.Tour), ms(c.Cent))
	}
	t.AddNote("dissemination/tournament delays are flat in σ (structural log₂ p); the tuned combining tree is competitive at σ=0 and strictly better at large σ")
	return t
}

// ext2Slacks is the slack axis of the EXT2 validation, in seconds.
var ext2Slacks = []float64{0.5e-3, 1e-3, 2e-3, 4e-3, 8e-3, 16e-3}

// Ext2 validates the fuzzy-barrier claim the paper builds on ([13]): the
// expected idle time at a fuzzy barrier falls inversely with the slack.
// Idle time per processor per iteration is max(0, R − s − e_i): the wait
// that the slack's independent work cannot hide.
func Ext2(o Options) *Table {
	t := &Table{
		ID:     "EXT2",
		Title:  "fuzzy-barrier idle time vs slack (4096 procs, σ=0.25ms)",
		Header: []string{"slack (ms)", "mean idle (µs)", "idle × slack (µs·ms)"},
	}
	const p = 4096
	idles := grid(o, len(ext2Slacks),
		func(i int, seed uint64) float64 {
			slack := ext2Slacks[i]
			it := barriersim.NewIterator(loadmodel.IID{N: p, Dist: stats.Normal{Sigma: fig8Sigma}}, slack, seed)
			idleSum, n := 0.0, 0
			iters := o.Warmup + o.Episodes
			for k := 0; k < iters; k++ {
				arr := it.Next()
				release := stats.Max(arr) // perfect barrier
				if k >= o.Warmup {
					for _, e := range arr {
						if idle := release - slack - e; idle > 0 {
							idleSum += idle
						}
						n++
					}
				}
				it.Complete(release)
			}
			return idleSum / float64(n)
		})
	for i, slack := range ext2Slacks {
		meanIdle := idles[i]
		t.AddRow(fmt.Sprintf("%g", slack*1e3), us(meanIdle), fmt.Sprintf("%.2f", meanIdle*1e6*slack*1e3))
	}
	t.AddNote("[13]'s claim: idle ∝ 1/slack, so the idle × slack column should be roughly constant once slack exceeds the arrival spread")
	return t
}

// ext3Sigmas are the two imbalance regimes of the EXT3 scenario, in
// units of t_c; each lasts Options.Episodes episodes.
var ext3Sigmas = []float64{0.5, 50}

// Ext3 demonstrates run-time degree adaptation (the paper's proposed
// future work, §8): the workload's σ switches regime mid-run, and the
// controller a ReconfigurableBarrier runs (loadmodel.Controller)
// re-estimates σ from observed arrivals and re-plans the degree every 10
// episodes. Its delay tracks the best fixed degree of each regime instead
// of being wrong in one of them.
//
// EXT3 is deliberately not a sweep: it is a single coupled time series
// (the adaptive simulator's state spans both phases), so there is no
// independent grid to fan out. The same episodes run three times through
// barriersim.RunPlanned: pinned at degree 4, pinned at 64, and planned.
func Ext3(o Options) *Table {
	t := &Table{
		ID:     "EXT3",
		Title:  "run-time degree adaptation across an imbalance regime change (4096 procs)",
		Header: []string{"phase", "σ/tc", "mean delay d=4 (ms)", "mean delay d=64 (ms)", "adaptive (ms)", "adaptive degree"},
	}
	const p = 4096
	// The regime change is a loadmodel.Phased workload.
	var gen loadmodel.Phased
	for _, s := range ext3Sigmas {
		gen.Phases = append(gen.Phases, loadmodel.Phase{Episodes: o.Episodes, Gen: loadmodel.IID{N: p, Dist: stats.Normal{Sigma: s * tc}}})
	}
	run := func(degree int) barriersim.PolicyRun {
		ctl := loadmodel.NewController(10, tc, degree, nil)
		return barriersim.RunPlanned(topology.NewClassic, barriersim.Config{}, gen, ctl, 0, len(ext3Sigmas)*o.Episodes, o.Seed+33)
	}
	fixed4, fixed64, adaptive := run(4), run(64), run(0)
	for phase, s := range ext3Sigmas {
		// The first half of each phase is the adaptation transient; the
		// table reports the settled second half.
		from, end := phase*o.Episodes+o.Episodes/2, (phase+1)*o.Episodes
		settled := func(pr barriersim.PolicyRun) string { return ms(stats.Mean(pr.SyncDelays[from:end])) }
		t.AddRow(fmt.Sprintf("%d", phase+1), fmt.Sprintf("%g", s),
			settled(fixed4), settled(fixed64), settled(adaptive), fmt.Sprintf("%d", adaptive.Plans[end-1].Degree))
	}
	t.AddNote("delays are means over each phase's second half (after the adaptation transient); the adaptive barrier tracks the better fixed degree of each regime, while each fixed degree is poor in one phase")
	return t
}
