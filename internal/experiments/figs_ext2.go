package experiments

import (
	"fmt"
	"math"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// ext4Sigmas is the σ axis of the EXT4 ablation, in units of t_c.
var ext4Sigmas = []float64{1.6, 6.2, 12.5, 25}

// ext4DistNames labels the distribution axis (column order of the table).
var ext4DistNames = []string{"normal", "uniform", "exponential"}

// ext4Dist builds the zero-mean distribution of the named shape at the
// given σ.
func ext4Dist(name string, sigma float64) stats.Distribution {
	switch name {
	case "normal":
		return stats.Normal{Sigma: sigma}
	case "uniform":
		return stats.Uniform{Lo: -sigma * math.Sqrt(3), Hi: sigma * math.Sqrt(3)}
	case "exponential":
		return stats.Exponential{Rate: 1 / sigma, Shift: -sigma}
	}
	panic("experiments: unknown distribution " + name)
}

// optCell is the generic optimal-degree point shared by EXT4 and EXT5.
type optCell struct {
	Degree  int
	Speedup float64
}

// Ext4 probes the sensitivity of the optimal degree to the *shape* of the
// arrival distribution at matched standard deviation. The paper assumes
// normally distributed arrivals (supported by [13] and [15]) but notes in
// §8 that fuzzy barriers skew the distribution, "with a few processors
// being much slower than average" — which the exponential's heavy right
// tail models. A heavy right tail isolates the last processor and makes
// wide trees win at *smaller* σ than the normal does; a bounded uniform
// spread behaves like the normal.
func Ext4(o Options) *Table {
	t := &Table{
		ID:     "EXT4",
		Title:  "optimal degree vs arrival distribution shape, 256 procs (matched σ)",
		Header: []string{"σ/tc", "normal", "uniform", "exponential (right tail)"},
	}
	const p = 256
	type point struct {
		Sigma float64
		Dist  string
	}
	var points []point
	for _, s := range ext4Sigmas {
		for _, name := range ext4DistNames {
			points = append(points, point{s, name})
		}
	}
	cells := grid(o, len(points), func(i int, seed uint64) optCell {
		pt := points[i]
		best, speedup, _ := barriersim.OptimalDegree(
			p, topology.NewClassic, barriersim.Config{}, ext4Dist(pt.Dist, pt.Sigma*tc),
			o.Episodes, seed)
		return optCell{Degree: best.Degree, Speedup: speedup}
	})
	i := 0
	for _, s := range ext4Sigmas {
		row := []string{fmt.Sprintf("%g", s)}
		for range ext4DistNames {
			c := cells[i]
			i++
			row = append(row, fmt.Sprintf("%d (%.2f)", c.Degree, c.Speedup))
		}
		t.AddRow(row...)
	}
	t.AddNote("entries are optimal degree (speedup vs degree 4); all three distributions are zero-mean with the stated σ")
	return t
}
