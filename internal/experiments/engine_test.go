package experiments

import (
	"runtime"
	"testing"

	"softbarrier/internal/sweep"
)

// tablesJSON renders a set of representative experiments under the given
// engine. The chosen runners cover the distinct grid shapes: paired degree
// sweeps (FIG3), coupled static/dynamic pairs (FIG10), baseline
// comparisons (EXT1) and distribution grids (EXT4).
func tablesJSON(t *testing.T, o Options) string {
	t.Helper()
	out := ""
	for _, run := range []Runner{Fig3, Fig10, Ext1, Ext4} {
		s, err := run(o).JSON()
		if err != nil {
			t.Fatal(err)
		}
		out += s + "\n"
	}
	return out
}

// TestEngineDeterminism is the acceptance criterion of the sweep engine at
// the experiment layer: the rendered tables are byte-identical for
// sequential execution, workers=1, workers=4 and workers=GOMAXPROCS.
func TestEngineDeterminism(t *testing.T) {
	o := Options{Episodes: 8, Warmup: 3, Seed: 7}
	want := tablesJSON(t, o)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		po := o
		po.Engine = &sweep.Engine{Workers: workers}
		if got := tablesJSON(t, po); got != want {
			t.Errorf("workers=%d: tables differ from sequential run", workers)
		}
	}
}
