package softbarrier

import "softbarrier/internal/topology"

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
// The release is one broadcast gate on the shared internal/runtime core,
// whose waiters follow the configured spin→yield→park policy.
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
	b := &TreeBarrier{}
	b.init(applyOptions(opts), newTreeEpoch(tree, nil, 0))
	return b
}

// Levels returns the number of counter levels in the tree.
func (b *TreeBarrier) Levels() int { return b.state.Load().tree.Levels }

// Depths returns each participant's synchronization path length — how
// many counters it updates per episode. The tree is immutable, so Depths
// is safe at any time; index k of the result is participant k's depth.
func (b *TreeBarrier) Depths() []int { return b.state.Load().depths() }

var _ PhasedBarrier = (*TreeBarrier)(nil)
var _ ContextBarrier = (*TreeBarrier)(nil)
var _ Collective = (*TreeBarrier)(nil)
