package softbarrier

import (
	"testing"
	"testing/quick"

	"softbarrier/internal/barriersim"
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// Differential test: the runtime DynamicBarrier and the simulator
// implement the same placement algorithm, so driving both with identical
// arrival orders must produce identical placements.
//
// Arrive never blocks (a non-final participant just returns), so a single
// goroutine can execute a whole episode deterministically by calling
// Arrive in arrival order — giving us exact control over the completion
// order that the swaps depend on.

// driveRuntime executes the episodes' arrival orders on a runtime barrier
// and returns each participant's final first counter (pending evictions
// resolved).
func driveRuntime(tree *topology.Tree, orders [][]int) []int {
	b := NewDynamicFromTree(tree)
	for _, order := range orders {
		for _, proc := range order {
			b.Arrive(proc)
		}
	}
	st := b.state.Load()
	out := make([]int, st.p)
	for id := range out {
		out[id] = st.home(id)
	}
	return out
}

// driveSim executes the same orders on the simulator, spacing arrivals so
// the service order equals the arrival order (gaps ≫ t_c remove overlap
// ambiguity at distinct counters; same-counter order follows arrival
// order either way).
func driveSim(tree *topology.Tree, orders [][]int) []int {
	s := barriersim.New(tree, barriersim.Config{Dynamic: true})
	p := tree.P
	arr := make([]float64, p)
	for _, order := range orders {
		for pos, proc := range order {
			// Huge spacing: every update completes before the next
			// processor arrives, exactly like the sequential runtime
			// drive.
			arr[proc] = float64(pos) * 1e6 * model.DefaultTc
		}
		s.Episode(arr)
	}
	out := make([]int, p)
	for id := range out {
		out[id] = s.Tree().FirstCounter(id)
	}
	return out
}

func ordersFromSeed(p, episodes int, seed uint64) [][]int {
	r := stats.NewRNG(seed)
	orders := make([][]int, episodes)
	for k := range orders {
		orders[k] = r.Perm(p)
	}
	return orders
}

func TestDynamicBarrierMatchesSimulatorPlacement(t *testing.T) {
	configs := []struct {
		name string
		mk   func() *topology.Tree
	}{
		{"mcs-16-d2", func() *topology.Tree { return topology.NewMCS(16, 2) }},
		{"mcs-24-d4", func() *topology.Tree { return topology.NewMCS(24, 4) }},
		{"mcs-64-d4", func() *topology.Tree { return topology.NewMCS(64, 4) }},
		{"ring-2x8-d2", func() *topology.Tree { return topology.NewRing([]int{8, 8}, 2) }},
		{"ring-3x6-d4", func() *topology.Tree { return topology.NewRing([]int{6, 6, 6}, 4) }},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			p := cfg.mk().P
			for seed := uint64(0); seed < 8; seed++ {
				orders := ordersFromSeed(p, 6, 100+seed)
				rt := driveRuntime(cfg.mk(), orders)
				sm := driveSim(cfg.mk(), orders)
				for id := range rt {
					if rt[id] != sm[id] {
						t.Fatalf("seed %d: participant %d placed at %d (runtime) vs %d (simulator)",
							seed, id, rt[id], sm[id])
					}
				}
			}
		})
	}
}

// Property form over random shapes and longer runs.
func TestDynamicPlacementDifferentialProperty(t *testing.T) {
	f := func(seed uint32, pRaw, dRaw uint8, episodes uint8) bool {
		p := 4 + int(pRaw)%40
		d := 2 + int(dRaw)%4
		k := 1 + int(episodes)%8
		orders := ordersFromSeed(p, k, uint64(seed))
		rt := driveRuntime(topology.NewMCS(p, d), orders)
		sm := driveSim(topology.NewMCS(p, d), orders)
		for id := range rt {
			if rt[id] != sm[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
