package experiments

import (
	"fmt"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// tc is the counter update time used throughout, the paper's 20µs.
const tc = model.DefaultTc

// sigmaGrid is the load-imbalance grid of Figs. 3 and 4, in units of t_c.
var sigmaGrid = []float64{0, 1.6, 6.2, 12.5, 25, 50}

// procGrid is the system-size grid of Figs. 3 and 4.
var procGrid = []int{64, 256, 4096}

// procSigmaGrid flattens procGrid × sigmaGrid in row-major order, the
// point order shared by Figs. 3 and 4.
func procSigmaGrid() (points []struct {
	P     int
	Sigma float64
}) {
	for _, p := range procGrid {
		for _, s := range sigmaGrid {
			points = append(points, struct {
				P     int
				Sigma float64
			}{p, s})
		}
	}
	return points
}

// fig2Cell is the simulated half of one FIG2 row.
type fig2Cell struct {
	Levels                   int
	Update, Contention, Sync float64
}

// fig2Degrees is the degree axis of Figure 2.
var fig2Degrees = []int{2, 4, 8, 16, 32, 64}

// Fig2 reproduces Figure 2: simulated vs. approximated synchronization
// delay per combining-tree degree for 4K processors at σ = 0.25 ms
// (12.5·t_c). The simulated bar splits into update and contention delay;
// the approximation exists only for full-tree degrees, so degree 32 has no
// estimate — exactly as in the paper.
func Fig2(o Options) *Table {
	t := &Table{
		ID:     "FIG2",
		Title:  "sync delay per degree, 4K procs, σ=0.25ms (ms)",
		Header: []string{"degree", "depth", "sim update", "sim contention", "sim total", "model"},
	}
	const p = 4096
	sigma := 12.5 * tc
	// Every degree reuses the base seed: common random numbers keep the
	// per-degree comparison paired.
	cells := grid(o, len(fig2Degrees),
		func(i int, _ uint64) fig2Cell {
			tree := topology.NewClassic(p, fig2Degrees[i])
			rr := barriersim.RunIID(tree, barriersim.Config{}, stats.Normal{Sigma: sigma}, o.Episodes, o.Seed)
			return fig2Cell{Levels: tree.Levels, Update: rr.MeanUpdate, Contention: rr.MeanContention, Sync: rr.MeanSync}
		})
	estOf := model.EstimateByDegree(p, sigma, tc)
	for i, d := range fig2Degrees {
		c := cells[i]
		est := "-"
		if delay, ok := estOf[d]; ok {
			est = ms(delay)
		}
		t.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", c.Levels),
			ms(c.Update), ms(c.Contention), ms(c.Sync), est)
	}
	t.AddNote("paper shape: update delay ∝ depth; contention explodes past a threshold degree; model tracks the simulated totals for full-tree degrees")
	return t
}

// fig3Cell is one entry of the Fig. 3 grid.
type fig3Cell struct {
	OptDegree int
	Speedup   float64 // delay(degree 4) / delay(optimal)
}

// fig3Data computes the simulated optimal-degree grid.
func fig3Data(o Options) []fig3Cell {
	points := procSigmaGrid()
	return grid(o, len(points), func(i int, seed uint64) fig3Cell {
		pt := points[i]
		best, speedup, _ := barriersim.OptimalDegree(
			pt.P, topology.NewClassic, barriersim.Config{},
			stats.Normal{Sigma: pt.Sigma * tc}, o.Episodes, seed)
		return fig3Cell{OptDegree: best.Degree, Speedup: speedup}
	})
}

// Fig3 reproduces Figure 3: the simulated optimal combining-tree degree
// (and its speedup over degree 4) for each system size and load imbalance.
func Fig3(o Options) *Table {
	t := &Table{
		ID:     "FIG3",
		Title:  "simulated optimal degree (speedup vs degree 4)",
		Header: []string{"procs"},
	}
	for _, s := range sigmaGrid {
		t.Header = append(t.Header, fmt.Sprintf("σ=%gtc", s))
	}
	cells := fig3Data(o)
	i := 0
	for _, p := range procGrid {
		row := []string{fmt.Sprintf("%d", p)}
		for range sigmaGrid {
			c := cells[i]
			i++
			row = append(row, fmt.Sprintf("%d (%.2f)", c.OptDegree, c.Speedup))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: degree 4 optimal at σ=0; optimal degree and speedup grow with σ and with p (paper reaches degree 128+ and speedup ≈3 on 4K)")
	return t
}

// fig4Cell is one simulated-vs-estimated cell of the Fig. 4 grid.
type fig4Cell struct {
	OptDegree int
	OptDelay  float64
	D4        float64
	EstDegree int
	EstDelay  float64
}

// Fig4 reproduces Figure 4: the analytic model's estimated optimal degree
// against the simulated optimum, with both speedups relative to degree 4,
// plus the paper's headline accuracy metric (mean estimated/optimal delay
// ratio; paper: 1.07).
func Fig4(o Options) *Table {
	t := &Table{
		ID:     "FIG4",
		Title:  "simulated (opt) vs estimated (est) optimal degree (speedup vs degree 4)",
		Header: []string{"procs", "row"},
	}
	for _, s := range sigmaGrid {
		t.Header = append(t.Header, fmt.Sprintf("σ=%gtc", s))
	}
	points := procSigmaGrid()
	cells := grid(o, len(points), func(i int, seed uint64) fig4Cell {
		pt := points[i]
		sweep := barriersim.DegreeSweep(nil,
			pt.P, topology.NewClassic, barriersim.Config{},
			stats.Normal{Sigma: pt.Sigma * tc}, o.Episodes, seed)
		opt := barriersim.Best(sweep)
		est := model.EstimateOptimalDegree(pt.P, pt.Sigma*tc, tc)
		d4, _ := barriersim.DelayOf(sweep, 4)
		estDelay, ok := barriersim.DelayOf(sweep, est.Degree)
		if !ok {
			// The model can only recommend full-tree degrees, which
			// for power-of-two p are all in the sweep.
			estDelay = opt.MeanSync
		}
		return fig4Cell{OptDegree: opt.Degree, OptDelay: opt.MeanSync, D4: d4,
			EstDegree: est.Degree, EstDelay: estDelay}
	})
	sumRatio, nRatio := 0.0, 0
	i := 0
	for _, p := range procGrid {
		optRow := []string{fmt.Sprintf("%d", p), "opt"}
		estRow := []string{"", "est"}
		for range sigmaGrid {
			c := cells[i]
			i++
			optRow = append(optRow, fmt.Sprintf("%d (%.2f)", c.OptDegree, c.D4/c.OptDelay))
			estRow = append(estRow, fmt.Sprintf("%d (%.2f)", c.EstDegree, c.D4/c.EstDelay))
			if c.OptDelay > 0 {
				sumRatio += c.EstDelay / c.OptDelay
				nRatio++
			}
		}
		t.AddRow(optRow...)
		t.AddRow(estRow...)
	}
	t.AddNote("mean simulated delay of estimated degree / optimal degree = %.3f (paper: ≈1.07)", sumRatio/float64(nRatio))
	return t
}

// eq1Cell is the simulated half of one EQ1 row.
type eq1Cell struct {
	Levels int
	Sync   float64
}

// eq1Degrees is the degree axis of the EQ1 check.
var eq1Degrees = []int{2, 4, 8, 16, 64}

// Eq1 verifies §3's closed-form check: under simultaneous arrival the
// synchronization delay of a full tree is L·d·t_c, minimized near degree
// e ≈ 2.72 in the continuous relaxation, with degrees 2 and 4 tied among
// integers for power-of-4 system sizes.
func Eq1OptimalDegree(o Options) *Table {
	t := &Table{
		ID:     "EQ1",
		Title:  "simultaneous-arrival delay by degree, p=4096 (ms)",
		Header: []string{"degree", "levels", "sim delay", "L·d·t_c"},
	}
	const p = 4096
	cells := grid(o, len(eq1Degrees),
		func(i int, seed uint64) eq1Cell {
			tree := topology.NewClassic(p, eq1Degrees[i])
			rr := barriersim.RunIID(tree, barriersim.Config{}, stats.Degenerate{}, 1, seed)
			return eq1Cell{Levels: tree.Levels, Sync: rr.MeanSync}
		})
	for i, d := range eq1Degrees {
		c := cells[i]
		t.AddRow(fmt.Sprintf("%d", d), fmt.Sprintf("%d", c.Levels),
			ms(c.Sync), ms(float64(c.Levels*d)*tc))
	}
	t.AddNote("continuous optimum of d/ln d is d = e ≈ %.3f; degrees 2 and 4 tie at 24·t_c for p=4096", model.OptimalDegreeSimultaneous())
	return t
}
