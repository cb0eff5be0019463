package experiments

import (
	"fmt"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// fig8Sigma is the arrival spread of the §5 experiments: 0.25 ms.
const fig8Sigma = 0.25e-3

// fig8Slacks are the fuzzy-barrier slacks of Figure 8, in seconds.
var fig8Slacks = []float64{0, 1e-3, 2e-3, 4e-3, 16e-3}

// fig8Degrees are the tree degrees of Figure 8.
var fig8Degrees = []int{4, 16}

// fig5Slacks is the slack axis of Figure 5, in seconds.
var fig5Slacks = []float64{0, 1e-3, 4e-3, 16e-3}

// fig5Lags is the iteration-lag axis of Figure 5.
var fig5Lags = []int{1, 2, 5, 10, 20}

// Fig5 reproduces the §5 persistence observation (Figure 5): with fuzzy
// slack, a processor that is slow now remains slow for many iterations.
// It reports the Spearman rank correlation between the arrival orders of
// iterations k and k+lag, under the slack iteration model with a perfect
// (zero-delay) barrier.
func Fig5(o Options) *Table {
	t := &Table{
		ID:     "FIG5",
		Title:  "arrival-order rank correlation vs iteration lag (p=4096, σ=0.25ms)",
		Header: []string{"slack (ms)"},
	}
	for _, lag := range fig5Lags {
		t.Header = append(t.Header, fmt.Sprintf("lag %d", lag))
	}
	const p = 4096
	iters := o.Warmup + o.Episodes
	if iters < 40 {
		iters = 40
	}
	rows := grid(o, len(fig5Slacks),
		func(i int, seed uint64) []float64 {
			it := barriersim.NewIterator(loadmodel.IID{N: p, Dist: stats.Normal{Sigma: fig8Sigma}}, fig5Slacks[i], seed)
			history := make([][]float64, 0, iters)
			for k := 0; k < iters; k++ {
				arr := it.Next()
				history = append(history, append([]float64(nil), arr...))
				it.Complete(stats.Max(arr)) // perfect barrier
			}
			corrs := make([]float64, 0, len(fig5Lags))
			for _, lag := range fig5Lags {
				sum, n := 0.0, 0
				for k := o.Warmup; k+lag < len(history); k++ {
					sum += stats.Spearman(history[k], history[k+lag])
					n++
				}
				corrs = append(corrs, sum/float64(n))
			}
			return corrs
		})
	for i, slack := range fig5Slacks {
		row := []string{fmt.Sprintf("%g", slack*1e3)}
		for _, c := range rows[i] {
			row = append(row, fmt.Sprintf("%.2f", c))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper shape: slack 0 gives no persistence (correlation ≈0); large slack keeps slow processors slow for ≥20 iterations")
	return t
}

// fig8Row is one measured configuration of Figure 8.
type fig8Row struct {
	LastDepth    float64 // dynamic placement, mean releaser depth
	Speedup      float64 // static delay / dynamic delay
	CommOverhead float64
}

// fig8Data measures the dynamic-placement barrier against static placement
// for 4K processors over the slack grid, one sweep point per
// (degree, slack) pair.
func fig8Data(o Options) []fig8Row {
	const p = 4096
	dist := stats.Normal{Sigma: fig8Sigma}
	type point struct {
		Degree int
		Slack  float64
	}
	var points []point
	for _, d := range fig8Degrees {
		for _, slack := range fig8Slacks {
			points = append(points, point{d, slack})
		}
	}
	return grid(o, len(points), func(i int, seed uint64) fig8Row {
		pt := points[i]
		tree := topology.NewMCS(p, pt.Degree)
		mkIter := func() *barriersim.Iterator {
			return barriersim.NewIterator(loadmodel.IID{N: p, Dist: dist}, pt.Slack, seed)
		}
		static := barriersim.New(tree, barriersim.Config{}).Run(mkIter(), o.Warmup, o.Episodes)
		dynamic := barriersim.New(tree, barriersim.Config{Dynamic: true}).Run(mkIter(), o.Warmup, o.Episodes)
		return fig8Row{
			LastDepth:    dynamic.MeanLastDepth,
			Speedup:      static.MeanSync / dynamic.MeanSync,
			CommOverhead: dynamic.CommOverhead,
		}
	})
}

// Fig8 reproduces Figure 8: last-processor depth, synchronization speedup
// over static placement, and communication overhead of the dynamic
// placement barrier for 4K processors, degrees 4 and 16, across slacks.
func Fig8(o Options) *Table {
	t := &Table{
		ID:     "FIG8",
		Title:  "dynamic placement, 4K procs, σ=0.25ms",
		Header: []string{"degree", "metric"},
	}
	for _, s := range fig8Slacks {
		t.Header = append(t.Header, fmt.Sprintf("slack %gms", s*1e3))
	}
	rows := fig8Data(o)
	i := 0
	for _, d := range fig8Degrees {
		depth := []string{fmt.Sprintf("%d", d), "last proc depth"}
		speed := []string{"", "sync speedup"}
		comm := []string{"", "comm overhead"}
		for range fig8Slacks {
			r := rows[i]
			i++
			depth = append(depth, fmt.Sprintf("%.2f", r.LastDepth))
			speed = append(speed, fmt.Sprintf("%.2f", r.Speedup))
			comm = append(comm, fmt.Sprintf("%.3f", r.CommOverhead))
		}
		t.AddRow(depth...)
		t.AddRow(speed...)
		t.AddRow(comm...)
	}
	t.AddNote("paper: depth 5.85→1.24 (d=4) and 2.99→1.21 (d=16); speedup 1.00→4.71 and 0.99→2.45; comm overhead ≤1.09, shrinking with slack")
	return t
}
