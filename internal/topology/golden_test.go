package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"testing"
)

// goldenSizes and goldenDegrees span every builder path: the flat
// single-counter tree, partial last groups at every layer, the MCS leaf
// count search, and sizes either side of a power of the degree.
var (
	goldenDegrees = []int{2, 3, 4, 5, 8, 16, 64}
	goldenRings   = [][]int{
		{1}, {2}, {7}, {2, 1}, {4, 4}, {5, 4, 3}, {3, 7, 2, 9},
		{8, 8, 8, 8}, {16, 1, 33}, {64, 64}, {2, 2, 2, 2, 2, 2},
		{100, 37}, {300, 1000, 17},
	}
)

func goldenSizes() []int {
	var ps []int
	for p := 1; p <= 70; p++ {
		ps = append(ps, p)
	}
	return append(ps, 255, 256, 257, 1000, 4096)
}

// digestTree writes every field of t, both per-processor tables and the
// nil-ness of every slice into h, so two trees digest alike only when
// they are identical field for field (reflect.DeepEqual included).
func digestTree(h hash.Hash, t *Tree) {
	var buf [8]byte
	put := func(v int) {
		binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	ints := func(xs []int) {
		if xs == nil {
			put(-1)
			return
		}
		put(len(xs))
		for _, x := range xs {
			put(x)
		}
	}
	put(int(t.Kind))
	put(t.P)
	put(t.Degree)
	put(t.Root)
	put(t.Levels)
	put(len(t.Counters))
	for i := range t.Counters {
		c := &t.Counters[i]
		put(c.ID)
		put(c.Level)
		put(c.Parent)
		ints(c.Children)
		ints(c.Procs)
		put(c.Local)
		put(c.RingID)
	}
	ints(t.first)
	ints(t.ringOf)
}

// goldenPerm is the seeded placement order for a tree of p processors
// built with degree d.
func goldenPerm(p, d int) []int {
	return rand.New(rand.NewSource(int64(p)*131 + int64(d))).Perm(p)
}

// TestTreeShapeGolden pins every tree the builders produce: a change to
// any field of any counter, to either per-processor table, or to a
// slice's nil-ness changes a digest. The digests were captured before
// the builders were changed to carve slices from shared backing arrays,
// so they also prove that rewrite changed no tree.
func TestTreeShapeGolden(t *testing.T) {
	golden := map[string]string{
		"classic":        "0f01362f3991256eb82baf6f404c0f735903f1a17e5fd4d7b3edadaa27776213",
		"mcs":            "c281fd629e77c3e357831539bee4e16131491e14b3daf2a2b0c7174afe99e190",
		"ring":           "0fdadd3ec88831abac787a92415f5e4180b5b168278bb48d65549bff3291fb99",
		"classic-placed": "75158abcbd2e51959540c9c352c03fcbf63c5c0acb783a82e85eeb4b7f6592d4",
		"mcs-placed":     "e4eab64f2206401011a50c7b5c4229f9addc4841de4991e09a251ad39e645bc0",
		"clone":          "526e9cc7696e94d2856e51e7d77278a2d7a699a44bc4ec99807a957f5d3476fd",
	}
	hs := map[string]hash.Hash{}
	for k := range golden {
		hs[k] = sha256.New()
	}
	for _, p := range goldenSizes() {
		for _, d := range goldenDegrees {
			for _, b := range []struct {
				name  string
				build func(int, int) *Tree
			}{{"classic", NewClassic}, {"mcs", NewMCS}} {
				tr := b.build(p, d)
				digestTree(hs[b.name], tr)
				digestTree(hs["clone"], tr.Clone())
				placed, err := tr.PlaceByDepth(goldenPerm(p, d))
				if err != nil {
					t.Fatal(err)
				}
				digestTree(hs[b.name+"-placed"], placed)
				digestTree(hs["clone"], placed.Clone())
			}
		}
	}
	for _, rings := range goldenRings {
		for _, d := range []int{2, 3, 4, 8} {
			tr := NewRing(rings, d)
			digestTree(hs["ring"], tr)
			digestTree(hs["clone"], tr.Clone())
		}
	}
	for k, want := range golden {
		if got := hex.EncodeToString(hs[k].Sum(nil)); got != want {
			t.Errorf("%s trees digest to\n  %s\nwant\n  %s", k, got, want)
		}
	}
}
