package experiments

import (
	"fmt"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// ext5Alphas is the lock-degradation axis of the EXT5 ablation.
var ext5Alphas = []float64{0, 0.25, 1}

// ext5Sigmas is the σ axis of the EXT5 ablation, in units of t_c.
var ext5Sigmas = []float64{0, 6.2, 25}

// Ext5 ablates the paper's ideal-lock assumption. The simulations (and
// Eq. 1) charge a constant t_c per counter update regardless of queue
// length — an ideal queue lock. Test-and-set locks degrade under
// contention: an update issued behind a backlog costs more. Sweeping a
// degradation factor shifts the whole optimal-degree curve narrower
// (degree 2 at σ = 0, since waiters per counter now dominate tree depth),
// but the paper's qualitative conclusion survives: the optimal degree
// still grows monotonically with the load imbalance.
func Ext5(o Options) *Table {
	t := &Table{
		ID:     "EXT5",
		Title:  "optimal degree under lock degradation, 256 procs",
		Header: []string{"degradation", "σ=0", "σ=6.2tc", "σ=25tc"},
	}
	const p = 256
	type point struct {
		Alpha float64
		Sigma float64
	}
	var points []point
	for _, alpha := range ext5Alphas {
		for _, s := range ext5Sigmas {
			points = append(points, point{alpha, s})
		}
	}
	cells := grid(o, len(points), func(i int, seed uint64) optCell {
		pt := points[i]
		cfg := barriersim.Config{LockDegradation: pt.Alpha}
		best, speedup, _ := barriersim.OptimalDegree(
			p, topology.NewClassic, cfg,
			stats.Normal{Sigma: pt.Sigma * tc}, o.Episodes, seed)
		return optCell{Degree: best.Degree, Speedup: speedup}
	})
	i := 0
	for _, alpha := range ext5Alphas {
		row := []string{fmt.Sprintf("%g", alpha)}
		for range ext5Sigmas {
			c := cells[i]
			i++
			row = append(row, fmt.Sprintf("%d (%.2f)", c.Degree, c.Speedup))
		}
		t.AddRow(row...)
	}
	t.AddNote("entries are optimal degree (speedup vs degree 4); degradation α charges t_c·(1+α·backlog/t_c) per update, modelling test-and-set locks")
	return t
}
