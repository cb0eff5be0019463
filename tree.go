package softbarrier

import (
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// TreeBarrier is a software combining-tree barrier: a tree of atomic
// counters, each on its own cache line, so that at most degree+1
// participants ever contend on the same line. A participant adds to its
// first counter; whoever completes a counter's fan-in proceeds to the
// parent, and completing the root releases the episode.
//
// Construct with NewCombiningTree (participants at the leaves only, the
// Yew/Tzeng/Lawrie structure) or NewMCSTree (one participant attached to
// every counter, the Mellor-Crummey & Scott structure the paper's §5
// builds on).
//
// The release path runs on the shared internal/runtime core: waiters
// follow the configured spin→yield→park policy, and WithTreeWakeup swaps
// the broadcast gate for an MCS-style binary wakeup tree whose flags park
// the same way.
type TreeBarrier struct {
	treeCore
}

// NewCombiningTree returns a classic combining-tree barrier for p
// participants with the given tree degree (≥2). Degree ≥ p degenerates to
// a flat central counter.
func NewCombiningTree(p, degree int, opts ...Option) *TreeBarrier {
	return newTreeBarrier(topology.NewClassic(p, degree), opts)
}

// NewMCSTree returns an MCS-style tree barrier for p participants with the
// given degree: every counter has one statically attached participant,
// which shortens the average path (§4).
func NewMCSTree(p, degree int, opts ...Option) *TreeBarrier {
	return newTreeBarrier(topology.NewMCS(p, degree), opts)
}

// newTreeBarrier builds the static tree: its one epoch is never replaced.
func newTreeBarrier(tree *topology.Tree, opts []Option) *TreeBarrier {
	o := applyOptions(opts)
	tree = placeTree(tree, o.placeOrder)
	b := &TreeBarrier{}
	if o.treeWakeup {
		b.wakeFlag = make([]rt.Cell, tree.P)
		rt.InitCells(b.wakeFlag)
	}
	b.init(o, newTreeEpoch(tree, nil, 0))
	return b
}

// Levels returns the number of counter levels in the tree.
func (b *TreeBarrier) Levels() int { return b.state.Load().tree.Levels }

// Depths returns each participant's synchronization path length — how
// many counters it updates per episode. The tree is immutable, so Depths
// is safe at any time; index k of the result is participant k's depth.
// With a placement applied (WithPlacement), the laggiest-ranked
// participants show the smallest depths.
func (b *TreeBarrier) Depths() []int { return b.state.Load().depths() }

// awaitWake is Await under WithTreeWakeup: instead of the broadcast gate,
// the releaser wakes participant 0, and each woken participant wakes its
// two children in a binary heap layout — the MCS-style wakeup tree that
// bounds the number of waiters per flag.
func (b *treeCore) awaitWake(id int, mine uint64) {
	got := b.wakeFlag[id].AwaitAtLeast(mine+1, b.policy)
	if got == rt.PoisonValue {
		return // poison wake; siblings' flags were poisoned alongside
	}
	// Propagate the wakeup (monotone values make overlapping episodes
	// safe: a flag may carry a newer generation, which is still a
	// release of our episode's successor and therefore of ours).
	for _, child := range [2]int{2*id + 1, 2*id + 2} {
		if child < len(b.wakeFlag) {
			if cur := b.wakeFlag[child].Load(); cur < got {
				b.wakeFlag[child].Set(got)
			}
		}
	}
}

var _ PhasedBarrier = (*TreeBarrier)(nil)
var _ ContextBarrier = (*TreeBarrier)(nil)
var _ Collective = (*TreeBarrier)(nil)
