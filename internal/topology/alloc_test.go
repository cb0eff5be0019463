package topology

import (
	"slices"
	"testing"
)

// allocBuilder is one way a tree is made, and what it may allocate.
type allocBuilder struct {
	name  string
	limit float64 // allocations per build, whatever P
	build func() *Tree
}

// allocBuilders builds a tree of about p processors each way a tree is
// made: the three builders, Clone and PlaceByDepth.
func allocBuilders(p int) []allocBuilder {
	mcs := NewMCS(p, 4)
	order := goldenPerm(p, 4)
	return []allocBuilder{
		{"classic", 3, func() *Tree { return NewClassic(p, 4) }},
		{"mcs", 3, func() *Tree { return NewMCS(p, 4) }},
		{"ring", 3, func() *Tree { return NewRing([]int{p / 2, p / 4, p / 4}, 4) }},
		{"clone", 3, mcs.Clone},
		{"place", 3, func() *Tree {
			placed, err := mcs.PlaceByDepth(order)
			if err != nil {
				panic(err)
			}
			return placed
		}},
	}
}

// TestBuildAllocsFixed gates every way of making a tree at a fixed number
// of allocations: the count at P = 4096 is the count at P = 32, and at
// most the limit, so a rebuild on a barrier's release path costs the same
// number of allocations at any scale.
func TestBuildAllocsFixed(t *testing.T) {
	small, large := allocBuilders(32), allocBuilders(4096)
	for i, b := range small {
		s := testing.AllocsPerRun(20, func() { b.build() })
		l := testing.AllocsPerRun(20, func() { large[i].build() })
		if s != l {
			t.Errorf("%s: %v allocations at P = 32 but %v at P = 4096", b.name, s, l)
		}
		if s > b.limit {
			t.Errorf("%s: %v allocations per build, want at most %v", b.name, s, b.limit)
		}
	}
}

// TestCountersDoNotAlias appends to each counter's Procs and Children in
// turn, as a caller editing a tree might, and checks that no other counter
// and neither per-processor table changed: the builders carve the slices
// from shared arrays, so a slice whose capacity ran past its length would
// let the append write into its neighbour.
func TestCountersDoNotAlias(t *testing.T) {
	mcs := NewMCS(40, 3)
	placed, err := mcs.PlaceByDepth(goldenPerm(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tree *Tree
	}{
		{"classic", NewClassic(40, 3)},
		{"mcs", mcs},
		{"ring", NewRing([]int{9, 5, 7}, 2)},
		{"clone", mcs.Clone()},
		{"place", placed},
	} {
		tr := tc.tree
		for i := range tr.Counters {
			want := tr.Clone()
			c := &tr.Counters[i]
			_ = append(c.Procs, -7)
			_ = append(c.Children, -7)
			for j := range tr.Counters {
				got, w := &tr.Counters[j], &want.Counters[j]
				if !slices.Equal(got.Procs, w.Procs) || !slices.Equal(got.Children, w.Children) {
					t.Fatalf("%s: appending to counter %d changed counter %d: procs %v children %v, was %v %v",
						tc.name, i, j, got.Procs, got.Children, w.Procs, w.Children)
				}
			}
			if !slices.Equal(tr.first, want.first) || !slices.Equal(tr.ringOf, want.ringOf) {
				t.Fatalf("%s: appending to counter %d changed the per-processor tables", tc.name, i)
			}
		}
	}
}
