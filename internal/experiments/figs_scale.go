package experiments

import (
	"fmt"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// scaleProcs is the system-size sweep of Figures 9–11.
var scaleProcs = []int{16, 64, 256, 1024, 4096}

// fig9Sigmas is the imbalance axis of Figure 9, in seconds.
var fig9Sigmas = []float64{0.5e-3, 2e-3}

// fig9Cell is one (p, σ) point of the Fig. 9 grid.
type fig9Cell struct {
	D4        float64
	Opt       float64
	OptDegree int
}

// Fig9 reproduces Figure 9: synchronization delay versus system size for a
// degree-4 combining tree and for the optimal-degree tree, at two load
// imbalances. The optimal-degree curves flatten: with enough imbalance the
// delay is insensitive to the system size.
func Fig9(o Options) *Table {
	t := &Table{
		ID:     "FIG9",
		Title:  "sync delay vs system size: degree 4 vs optimal degree (ms)",
		Header: []string{"procs", "d=4 σ=0.5ms", "opt σ=0.5ms", "(d*)", "d=4 σ=2ms", "opt σ=2ms", "(d*)"},
	}
	type point struct {
		P     int
		Sigma float64
	}
	var points []point
	for _, p := range scaleProcs {
		for _, sigma := range fig9Sigmas {
			points = append(points, point{p, sigma})
		}
	}
	cells := grid(o, len(points), func(i int, seed uint64) fig9Cell {
		pt := points[i]
		sweep := barriersim.DegreeSweep(nil, pt.P, topology.NewClassic, barriersim.Config{},
			stats.Normal{Sigma: pt.Sigma}, o.Episodes, seed)
		best := barriersim.Best(sweep)
		d4, ok := barriersim.DelayOf(sweep, 4)
		if !ok {
			d4 = best.MeanSync
		}
		return fig9Cell{D4: d4, Opt: best.MeanSync, OptDegree: best.Degree}
	})
	i := 0
	for _, p := range scaleProcs {
		row := []string{fmt.Sprintf("%d", p)}
		for range fig9Sigmas {
			c := cells[i]
			i++
			row = append(row, ms(c.D4), ms(c.Opt), fmt.Sprintf("%d", c.OptDegree))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: degree-4 delay grows stepwise with depth; optimal-degree delay is consistently lower and nearly flat in p at large σ")
	return t
}

// placementCell holds the static and dynamic runs of one placement point.
type placementCell struct {
	Static, Dynamic barriersim.RunResult
}

// scaleDynamicRun measures static and dynamic placement on an MCS tree of
// the given degree, with ample slack so placement can converge.
func scaleDynamicRun(o Options, p, degree int, slack float64, seed uint64) placementCell {
	tree := topology.NewMCS(p, degree)
	dist := stats.Normal{Sigma: fig8Sigma}
	mkIter := func() *barriersim.Iterator {
		return barriersim.NewIterator(loadmodel.IID{N: p, Dist: dist}, slack, seed)
	}
	return placementCell{
		Static:  barriersim.New(tree, barriersim.Config{}).Run(mkIter(), o.Warmup, o.Episodes),
		Dynamic: barriersim.New(tree, barriersim.Config{Dynamic: true}).Run(mkIter(), o.Warmup, o.Episodes),
	}
}

// placementVsSize sweeps scaleProcs for one degree, returning one
// static/dynamic pair per system size.
func placementVsSize(o Options, degree int, slack float64) []placementCell {
	return grid(o, len(scaleProcs),
		func(i int, seed uint64) placementCell {
			return scaleDynamicRun(o, scaleProcs[i], degree, slack, seed)
		})
}

// placementTable renders a placementVsSize sweep in the shared Fig. 10/11
// row format.
func placementTable(t *Table, cells []placementCell) {
	for i, p := range scaleProcs {
		static, dynamic := cells[i].Static, cells[i].Dynamic
		t.AddRow(fmt.Sprintf("%d", p), ms(static.MeanSync), ms(dynamic.MeanSync),
			fmt.Sprintf("%.2f", static.MeanSync/dynamic.MeanSync),
			fmt.Sprintf("%.2f", dynamic.MeanLastDepth))
	}
}

// Fig10 reproduces Figure 10: delay versus system size for static and
// dynamic placement on degree-4 trees at a small arrival spread with ample
// slack. Dynamic placement nearly neutralizes the tree depth: the delay
// becomes almost constant in p.
func Fig10(o Options) *Table {
	t := &Table{
		ID:     "FIG10",
		Title:  "static vs dynamic placement, degree 4, σ=0.25ms, slack 16ms (ms)",
		Header: []string{"procs", "static", "dynamic", "speedup", "dyn last depth"},
	}
	placementTable(t, placementVsSize(o, 4, 16e-3))
	t.AddNote("paper shape: static delay grows with tree depth; dynamic delay is nearly constant in p")
	return t
}

// Fig11 reproduces Figure 11: the combined effect — a wider (degree 16)
// tree plus dynamic placement — versus static degree 16, across system
// sizes. With both techniques the delay is nearly independent of the
// number of processors.
func Fig11(o Options) *Table {
	t := &Table{
		ID:     "FIG11",
		Title:  "combined: degree 16 static vs dynamic, σ=0.25ms, slack 16ms (ms)",
		Header: []string{"procs", "static d=16", "dynamic d=16", "speedup", "dyn last depth"},
	}
	placementTable(t, placementVsSize(o, 16, 16e-3))
	t.AddNote("paper shape: with a suitable degree and dynamic placement, software barriers scale to large p when slack is available")
	return t
}
