package ringsim

import (
	"softbarrier/internal/eventsim"
	"softbarrier/internal/topology"
)

// GatherResult reports one simulated barrier-gather's network behaviour.
type GatherResult struct {
	// Completion is when the last message of the gather is delivered. On
	// a unidirectional ring any gather needs Ω(N) slots of propagation
	// (information must physically circle), so completion alone does not
	// separate the schemes.
	Completion float64
	// Messages is the number of point-to-point messages sent.
	Messages int
	// TotalTraffic is the total link occupancy in slot·hops — the
	// bandwidth the gather steals from data traffic. This is where
	// combining wins: Θ(N²) for the flat gather versus Θ(N·d) for the
	// tree (Yew/Tzeng/Lawrie's "distributing the hot spot").
	TotalTraffic float64
	// MaxLinkUtilization is the busiest link's busy fraction over the
	// gather.
	MaxLinkUtilization float64
}

// measure finalizes the shared result fields.
func (g *GatherResult) measure(r *Ring) {
	total := 0.0
	for i := range r.links {
		total += r.links[i].TotalService
	}
	g.TotalTraffic = total
	if g.Completion > 0 {
		g.MaxLinkUtilization = r.MaxLinkUtilization(g.Completion)
	}
}

// FlatGather simulates the network traffic of a flat barrier's arrival
// phase on a single ring: every node sends one message to the counter's
// home node (the ring's last node, so all traffic flows forward). The
// links feeding the home node carry Θ(N) messages each — the §2 hot spot.
func FlatGather(r *Ring) GatherResult {
	r.Reset()
	home := r.N - 1
	var sim eventsim.Simulator
	res := GatherResult{}
	for n := 0; n < r.N; n++ {
		if n == home {
			continue
		}
		src := n
		res.Messages++
		sim.ScheduleAt(0, func() {
			r.Transit(&sim, src, home, func(t float64) {
				if t > res.Completion {
					res.Completion = t
				}
			})
		})
	}
	sim.Run()
	res.measure(r)
	return res
}

// CounterHomes assigns each tree counter a home node with locality: a
// counter with an attached local processor lives in that processor's
// cache; otherwise a leaf counter lives at its last member's node and an
// internal counter at its last child's home. Every message then travels a
// distance bounded by its subtree's span — the placement a real runtime
// would choose on a ring.
func CounterHomes(tree *topology.Tree) []int {
	homes := make([]int, len(tree.Counters))
	// Children always have lower IDs than their parent (layered
	// construction), so one ascending pass suffices.
	for c := range tree.Counters {
		tc := &tree.Counters[c]
		switch {
		case tc.Local != topology.NoProc:
			homes[c] = tc.Local
		case len(tc.Procs) > 0:
			homes[c] = tc.Procs[len(tc.Procs)-1]
		case len(tc.Children) > 0:
			homes[c] = homes[tc.Children[len(tc.Children)-1]]
		default:
			homes[c] = 0
		}
	}
	return homes
}

// TreeGather simulates the network traffic of a combining-tree barrier's
// arrival phase on a single ring: every processor sends to its first
// counter's home, and each completed counter sends one message to its
// parent's home. Message causality follows the tree: a counter's
// parent-message departs only when all its children's messages arrived.
func TreeGather(r *Ring, tree *topology.Tree) GatherResult {
	if tree.P != r.N {
		panic("ringsim: tree size does not match ring size")
	}
	r.Reset()
	var sim eventsim.Simulator
	res := GatherResult{}
	homes := CounterHomes(tree)

	pending := make([]int, len(tree.Counters))
	for i := range tree.Counters {
		pending[i] = tree.Counters[i].FanIn()
	}

	var deliver func(counter int, t float64)
	send := func(from, counter int) {
		res.Messages++
		r.Transit(&sim, from, homes[counter], func(t float64) { deliver(counter, t) })
	}
	deliver = func(counter int, t float64) {
		pending[counter]--
		if pending[counter] > 0 {
			return
		}
		// Counter complete: notify the parent, or finish at the root.
		parent := tree.Counters[counter].Parent
		if parent == topology.NoCounter {
			if t > res.Completion {
				res.Completion = t
			}
			return
		}
		send(homes[counter], parent)
	}

	for proc := 0; proc < tree.P; proc++ {
		proc := proc
		sim.ScheduleAt(0, func() { send(proc, tree.FirstCounter(proc)) })
	}
	sim.Run()
	res.measure(r)
	return res
}
