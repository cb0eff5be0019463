package experiments

import (
	"fmt"

	"softbarrier/internal/ksr"
	"softbarrier/internal/sor"
)

// ext6Degrees is the degree axis of the EXT6 scale-out.
var ext6Degrees = []int{4, 8, 16, 32}

// ext6Cell is one degree point of the EXT6 grid.
type ext6Cell struct {
	Static  float64
	Dynamic float64
	LastDep float64
}

// Ext6 scales the §7 SOR experiment from the 56-processor machine the
// authors could measure to a full-size KSR1 (34 rings of 32 processors =
// 1088, the machine's maximum configuration), asking whether the paper's
// conclusion — software barriers scale when the degree fits the imbalance
// and dynamic placement exploits slack — survives a 19× larger,
// ring-constrained system. Workload: the calibrated SOR timing model
// (d_x=60, d_y=210, σ≈110µs).
func Ext6(o Options) *Table {
	t := &Table{
		ID:     "EXT6",
		Title:  "full-size KSR1 (34×32 = 1088 procs), SOR dy=210: degree sweep + dynamic placement",
		Header: []string{"degree", "static delay (ms)", "dynamic delay (ms)", "speedup", "dyn last depth"},
	}
	rings := make([]int, 34)
	for i := range rings {
		rings[i] = 32
	}
	m := ksr.New56()
	m.Rings = rings
	tm := sor.NewTimingModel(m, 60, 210)
	const slack = 4e-3
	cells := grid(o, len(ext6Degrees),
		func(i int, seed uint64) ext6Cell {
			d := ext6Degrees[i]
			static := runKSRWorkload(o, m, m.Tree(d), tm, slack, false, seed)
			dynamic := runKSRWorkload(o, m, m.Tree(d), tm, slack, true, seed)
			return ext6Cell{Static: static.MeanSync, Dynamic: dynamic.MeanSync,
				LastDep: dynamic.MeanLastDepth}
		})
	bestStatic, bestDegree := -1.0, 0
	for i, d := range ext6Degrees {
		c := cells[i]
		t.AddRow(fmt.Sprintf("%d", d), ms(c.Static), ms(c.Dynamic),
			fmt.Sprintf("%.2f", c.Static/c.Dynamic),
			fmt.Sprintf("%.2f", c.LastDep))
		if bestStatic < 0 || c.Static < bestStatic {
			bestStatic, bestDegree = c.Static, d
		}
	}
	t.AddNote("static optimum at degree %d; dynamic placement keeps the last-processor depth near the ring floor", bestDegree)
	return t
}
