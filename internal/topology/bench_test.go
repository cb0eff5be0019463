package topology

import (
	"fmt"
	"testing"
)

// treeSink keeps the benchmarked builds from being optimized away.
var treeSink *Tree

// BenchmarkTreeBuild measures the builders an epoch rebuild runs: a
// classic tree, an MCS tree relabelled by PlaceByDepth (a placement
// re-order), and Clone (the simulator's per-run copy), at degree 4.
func BenchmarkTreeBuild(b *testing.B) {
	for _, p := range []int{32, 256, 4096} {
		order := make([]int, p)
		for i := range order {
			order[i] = p - 1 - i
		}
		mcs := NewMCS(p, 4)
		b.Run(fmt.Sprintf("classic/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				treeSink = NewClassic(p, 4)
			}
		})
		b.Run(fmt.Sprintf("mcs-placed/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				placed, err := NewMCS(p, 4).PlaceByDepth(order)
				if err != nil {
					b.Fatal(err)
				}
				treeSink = placed
			}
		})
		b.Run(fmt.Sprintf("clone/p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				treeSink = mcs.Clone()
			}
		})
	}
}
