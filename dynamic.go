package softbarrier

import "softbarrier/internal/topology"

// DynamicBarrier is the paper's dynamic-placement barrier (DESIGN §5.3,
// the paper's Fig. 7): an MCS-style combining tree in which a participant
// that completes a counter above its own — meaning it arrived last in that
// counter's whole subtree — swaps into that counter's local slot as it
// climbs, displacing the slot's previous occupant (the victim) into the
// position the victor just vacated. Under systemic load imbalance, or fuzzy barriers with
// enough slack, the consistently slow participant migrates to the root
// and synchronizes in O(1) counter updates instead of O(log p).
//
// The swap protocol follows the paper's two-phase scheme: the victor
// writes its id into the counter's Local entry and its previous first
// counter into the Destination entry, with its input cell there, which a
// folding collective writes into; at its next episode the victim notices
// it was displaced, reads Destination (the one extra communication, paid
// by the faster processor) and adopts it. Swap writes
// happen during the ascent, before the victor updates the parent counter,
// so they are always ordered before the episode's release.
//
// Release and telemetry run on the shared internal/runtime core; an
// installed Observer additionally sees the cumulative swap count per
// episode.
type DynamicBarrier struct {
	treeCore
}

// NewDynamic returns a dynamic-placement barrier for p participants over
// an MCS-style tree of the given degree.
func NewDynamic(p, degree int, opts ...Option) *DynamicBarrier {
	return NewDynamicFromTree(topology.NewMCS(p, degree), opts...)
}

// NewDynamicRing returns a dynamic-placement barrier whose tree is
// ring-constrained (one subtree per ring merged by an extra root), as used
// on the KSR1: swaps never cross ring boundaries.
func NewDynamicRing(ringSizes []int, degree int, opts ...Option) *DynamicBarrier {
	return NewDynamicFromTree(topology.NewRing(ringSizes, degree), opts...)
}

// NewDynamicFromTree builds the barrier over an explicit topology. Use
// topology.NewMCS or topology.NewRing; classic trees have no local slots
// and would never migrate anyone.
func NewDynamicFromTree(tree *topology.Tree, opts ...Option) *DynamicBarrier {
	o := applyOptions(opts)
	b := &DynamicBarrier{}
	b.dynamic = true
	b.init(o, newTreeEpoch(tree.MustPlaceByDepth(o.placeOrder), nil, 0))
	return b
}

// Swaps returns the total number of placement swaps performed so far.
func (b *DynamicBarrier) Swaps() uint64 { return b.swaps.Load() }

// DepthOf returns the number of counters participant id currently updates
// per episode (its synchronization path length). It is meaningful only at
// a quiescent point (no Wait/Arrive in flight); the slot is owner-written
// without cross-goroutine synchronization. A pending eviction the
// participant has not consumed yet is resolved as the victim itself would
// resolve it.
func (b *DynamicBarrier) DepthOf(id int) int {
	st := b.state.Load()
	checkID(id, st.P)
	n := 0
	for c := st.home(id); c != topology.NoCounter; c = int(st.counters[c].parent) {
		n++
	}
	return n
}

// home is the counter participant id's next ascent starts from: its first
// counter, or where a pending eviction it has not consumed yet sends it.
// Quiescent-only, like DepthOf.
func (st *treeEpoch) home(id int) int {
	c := st.slots[id].first
	if tc := &st.counters[c]; tc.evicted.Load() == int32(id) {
		c = int(tc.destination)
	}
	return c
}

// Neither step takes a lock; the counter chain orders them. A counter has
// one victor per episode — whoever's add completed it — and every access
// to its placement fields is by that victor, by the victim it names, or by
// the participant adopting it as a destination. The victim and the adopter
// both count inside the counter's subtree (a destination is always the
// child the victor climbed from), so their accesses precede the adds that
// complete the counter, which precede the victor's; the victor's precede
// its parent add, hence the release, hence everything of the next episode.
// evicted alone is read by participants that own none of this — everyone
// whose first counter this is checks it on arrival while the victim may be
// clearing it — so it is the one atomic, and the victor publishes it last:
// whoever sees its id there finds destination, destIn and local already
// written.
// internal/modelcheck explores these steps one memory operation at a time.

// adopt is the victim side (Fig. 6d), run before the participant's first
// counter update: if it was displaced last episode, its stale counter's
// evicted entry names it; it adopts the destination and its input cell
// there and, when that is an internal counter, takes over its local slot.
// Not displaced — the case on all but a few arrivals — it costs one atomic
// load.
func (st *treeEpoch) adopt(id int, sl *treeSlot) {
	cn := &st.counters[sl.first]
	if cn.evicted.Load() != int32(id) {
		return
	}
	cn.evicted.Store(topology.NoProc)
	dest := int(cn.destination)
	if len(st.tree.Counters[dest].Children) > 0 {
		st.counters[dest].local = int32(id)
	}
	sl.first, sl.in = dest, int(cn.destIn)
}

// victorSwap is the victor side (Fig. 6c), run after id completed counter
// c above its own: it swaps into c's local slot, leaving the displaced
// occupant a redirect to the position it vacates. It reports whether a
// swap happened — the ring merge root has no local slot, and swaps never
// cross ring boundaries.
func (st *treeEpoch) victorSwap(id int, sl *treeSlot, c int) bool {
	tc := &st.counters[c]
	victim := tc.local
	if victim == topology.NoProc || st.tree.Counters[c].RingID != st.tree.RingOf(id) {
		return false
	}
	tc.destination, tc.destIn = int32(sl.first), int32(sl.in)
	tc.local = int32(id)
	tc.evicted.Store(victim)
	sl.first, sl.in = c, int(tc.in) // a local slot's input is its counter's first
	return true
}

var _ PhasedBarrier = (*DynamicBarrier)(nil)
var _ ContextBarrier = (*DynamicBarrier)(nil)
var _ Collective = (*DynamicBarrier)(nil)
