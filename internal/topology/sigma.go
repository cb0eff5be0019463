package topology

import "fmt"

// MustPlaceByDepth is PlaceByDepth for an order that is a construction-time
// contract, like a tree degree: it panics where PlaceByDepth returns an
// error, and a nil order leaves the tree as built.
func (t *Tree) MustPlaceByDepth(order []int) *Tree {
	if order == nil {
		return t
	}
	placed, err := t.PlaceByDepth(order)
	if err != nil {
		panic(err.Error())
	}
	return placed
}

// PlaceByDepth returns a clone of the tree with processors reassigned to
// attachment slots by depth: order[0] takes the shallowest slot (for an
// MCS tree, the root's local slot), order[1] the next shallowest, and so
// on down to the deepest leaves. order must be a permutation of
// 0..P-1 — typically the laggiest-first ranking from a lag profile — so
// consistently late processors sit adjacent to the root and early ones at
// the leaves. Slot structure (counter layout, fan-ins, which slots are
// local) is unchanged; only which processor occupies which slot moves.
//
// Ring-constrained trees are refused: a processor's ring is physical and
// relabeling across rings would teleport it to another ring's memory.
func (t *Tree) PlaceByDepth(order []int) (*Tree, error) {
	if t.Kind == Ring {
		return nil, fmt.Errorf("topology: PlaceByDepth cannot relabel a ring-constrained tree")
	}
	if len(order) != t.P {
		return nil, fmt.Errorf("topology: order has %d entries for %d processors", len(order), t.P)
	}
	nt := t.Clone()
	fill(nt.first, NoCounter) // no processor placed yet
	// Walk the attachment slots shallowest first. A counter's depth is the
	// root's level minus its own, plus one, so the walk goes level by level
	// down from the root's; within a level ties break by counter id, then
	// slot index, so the assignment is deterministic.
	k := 0
	for level := t.Counters[t.Root].Level; level >= 0; level-- {
		for ci := range t.Counters {
			c := &t.Counters[ci]
			if c.Level != level {
				continue
			}
			for i, old := range c.Procs {
				p := order[k]
				k++
				if p < 0 || p >= t.P || nt.first[p] != NoCounter {
					return nil, fmt.Errorf("topology: order is not a permutation of 0..%d", t.P-1)
				}
				nt.Counters[ci].Procs[i] = p
				if c.Local == old {
					nt.Counters[ci].Local = p
				}
				nt.first[p] = ci
				nt.ringOf[p] = t.ringOf[old]
			}
		}
	}
	return nt, nil
}
