// Package topology constructs the combining-tree shapes the barrier study
// uses:
//
//   - classic combining trees (Yew/Tzeng/Lawrie): processors attached to
//     leaf counters only;
//   - MCS-style trees (Mellor-Crummey & Scott): one "local" processor
//     attached to every counter, the remaining processors grouped on leaf
//     counters — the substrate for static and dynamic placement;
//   - ring-constrained trees (KSR1-style): one MCS subtree per ring merged
//     by an additional root counter, with placement forbidden to cross
//     ring boundaries.
//
// A tree also carries the mutable processor placement (which counter each
// processor starts its ascent at), since dynamic placement rearranges it
// between barrier episodes.
package topology

import "fmt"

// NoProc marks the absence of an attached processor.
const NoProc = -1

// NoCounter marks the absence of a parent counter.
const NoCounter = -1

// Kind identifies the tree family.
type Kind int

// Tree families.
const (
	// Classic is a combining tree with processors at leaf counters only.
	Classic Kind = iota
	// MCS is a tree with one local processor attached to every counter.
	MCS
	// Ring is a set of per-ring MCS subtrees merged by an extra root.
	Ring
)

func (k Kind) String() string {
	switch k {
	case Classic:
		return "classic"
	case MCS:
		return "mcs"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Counter is one node of the combining tree.
type Counter struct {
	// ID is the counter's index in Tree.Counters.
	ID int
	// Level is the counter's layer: leaf counters are level 0 and a
	// counter's parent is always one level higher.
	Level int
	// Parent is the parent counter ID, or NoCounter for the root.
	Parent int
	// Children lists child counter IDs.
	Children []int
	// Procs lists the processors attached directly to this counter
	// (including, first, the Local processor for MCS-style trees).
	Procs []int
	// Local is the processor occupying this counter's local slot, always
	// Procs[0], or NoProc. Dynamic placement swaps processors through this
	// slot.
	Local int
	// RingID is the ring this counter belongs to, or -1 when the tree is
	// not ring-constrained (or for the merge root, which belongs to none).
	RingID int
}

// FanIn returns the number of arrivals this counter collects per episode:
// one per child counter plus one per attached processor.
func (c *Counter) FanIn() int { return len(c.Children) + len(c.Procs) }

// Tree is a combining tree together with its processor placement.
type Tree struct {
	// Kind is the tree family.
	Kind Kind
	// P is the number of processors.
	P int
	// Degree is the construction fan-out d.
	Degree int
	// Counters holds every counter; Counters[i].ID == i.
	Counters []Counter
	// Root is the root counter ID.
	Root int
	// Levels is the number of counter layers.
	Levels int
	// first[i] is the counter processor i starts its ascent at.
	first []int
	// ringOf[i] is the ring processor i belongs to (-1 if unconstrained).
	ringOf []int
}

// FirstCounter returns the counter processor p starts its ascent at.
func (t *Tree) FirstCounter(p int) int { return t.first[p] }

// RingOf returns the ring processor p belongs to, or -1.
func (t *Tree) RingOf(p int) int { return t.ringOf[p] }

// Depth returns the number of counters on the path from counter c to the
// root, inclusive. The paper's "depth seen by a processor" is
// Depth(FirstCounter(p)).
func (t *Tree) Depth(c int) int {
	n := 0
	for c != NoCounter {
		n++
		c = t.Counters[c].Parent
	}
	return n
}

// PathToRoot returns the counter IDs from c to the root, inclusive.
func (t *Tree) PathToRoot(c int) []int {
	var path []int
	for c != NoCounter {
		path = append(path, c)
		c = t.Counters[c].Parent
	}
	return path
}

// MaxFanIn returns the largest fan-in over all counters.
func (t *Tree) MaxFanIn() int {
	m := 0
	for i := range t.Counters {
		if f := t.Counters[i].FanIn(); f > m {
			m = f
		}
	}
	return m
}

// NumCounters returns the number of counters in the tree.
func (t *Tree) NumCounters() int { return len(t.Counters) }

// maxLayers bounds a tree's layer count: each layer above the leaves
// holds at most half the counters of the one below (the degree is at least
// 2), so no tree with an int-sized counter count has more layers.
const maxLayers = 64

// layerSizes appends to sizes the per-layer counter counts for n groups
// reduced by degree d until a single root remains: sizes[0] = n,
// sizes[k+1] = ceil(sizes[k]/d). The builders pass a [maxLayers]int on
// their stack, so sizing a tree allocates nothing.
func layerSizes(sizes []int, n, d int) []int {
	sizes = append(sizes, n)
	for n > 1 {
		n = (n + d - 1) / d
		sizes = append(sizes, n)
	}
	return sizes
}

// mcsLayers returns, appended to sizes, the layer sizes of NewMCS's tree
// for p processors: the largest leaf count with enough processors to give
// every counter a local processor and every leaf at least one processor.
func mcsLayers(sizes []int, p, d int) []int {
	nLeaves := max((p+d)/(d+1), 1)
	for {
		sizes = layerSizes(sizes[:0], nLeaves, d)
		internals := 0
		for _, s := range sizes[1:] {
			internals += s
		}
		if p-internals >= nLeaves || nLeaves == 1 {
			return sizes
		}
		nLeaves--
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

func checkShape(p, d int) {
	if p < 1 {
		panic("topology: need at least one processor")
	}
	if d < 2 {
		panic("topology: degree must be at least 2")
	}
}

// NewClassic builds a classic combining tree for p processors with degree
// d: ceil(p/d) leaf counters each holding up to d processors, reduced by
// degree d up to a single root. d ≥ p yields the flat single-counter
// barrier. It panics for p < 1 or d < 2.
func NewClassic(p, d int) *Tree {
	checkShape(p, d)
	var buf [maxLayers]int
	sizes := layerSizes(buf[:0], (p+d-1)/d, d)
	t, ints := newTree(Classic, p, d, sum(sizes))
	t.layLayers(0, sizes, d, 0, -1, &ints)
	t.Root, t.Levels = len(t.Counters)-1, len(sizes)

	// Attach processors to leaf counters in contiguous blocks of ≤ d.
	for leaf := 0; leaf < sizes[0]; leaf++ {
		lo := leaf * d
		procs := ints.take(min(d, p-lo))
		for i := range procs {
			procs[i], t.first[lo+i] = lo+i, leaf
		}
		t.Counters[leaf].Procs = procs
	}
	fill(t.ringOf, -1)
	return t
}

// NewMCS builds an MCS-style tree for p processors with degree d. Every
// counter has one local processor; leaf counters hold up to d+1 processors
// in total; internal counters have d counter children plus their local
// processor. It panics for p < 1 or d < 2.
func NewMCS(p, d int) *Tree {
	checkShape(p, d)
	var buf [maxLayers]int
	sizes := mcsLayers(buf[:0], p, d)
	t, ints := newTree(MCS, p, d, sum(sizes))
	t.layLayers(0, sizes, d, 0, -1, &ints)
	t.attachMCS(0, 0, sizes, p, &ints)
	t.Root, t.Levels = len(t.Counters)-1, len(sizes)
	fill(t.ringOf, -1)
	return t
}

// NewRing builds a ring-constrained tree: one MCS subtree of degree d per
// ring (ringSizes[i] processors in ring i), merged by one additional root
// counter. In MCS style the merge root also carries a local processor —
// the last processor of ring 0 — and belongs to ring 0 for placement
// purposes, so dynamic placement can still fill the root slot without ever
// crossing a ring boundary (as the paper's §7 measurements require: their
// last-processor depths fall below 2, so their root accepted migrants).
// Processor IDs are assigned ring by ring. A single ring degenerates to a
// plain MCS tree (with ring IDs recorded). It panics for an empty ring
// list, a non-positive ring, a first ring too small to spare its root
// processor (< 2 processors with multiple rings), or d < 2.
func NewRing(ringSizes []int, d int) *Tree {
	if len(ringSizes) == 0 {
		panic("topology: need at least one ring")
	}
	if len(ringSizes) > 1 && ringSizes[0] < 2 {
		panic("topology: first ring must have at least two processors to staff the merge root")
	}
	total := 0
	for _, s := range ringSizes {
		if s < 1 {
			panic("topology: ring sizes must be positive")
		}
		total += s
	}
	checkShape(total, d)
	multi := len(ringSizes) > 1
	// subSize is how many processors ring's subtree holds: ring 0's last
	// processor staffs the merge root.
	subSize := func(ring int) int {
		if multi && ring == 0 {
			return ringSizes[0] - 1
		}
		return ringSizes[ring]
	}
	// Size the whole tree before building any of it: every ring's subtree,
	// the merge root, and the level its ring roots all sit at.
	var buf [maxLayers]int
	n, maxLevel := 0, 0
	for ring := range ringSizes {
		sizes := mcsLayers(buf[:0], subSize(ring), d)
		n += sum(sizes)
		maxLevel = max(maxLevel, len(sizes)-1)
	}
	if multi {
		n++
	}
	t, ints := newTree(Ring, total, d, n)
	var ringRoots []int // the merge root's children
	if multi {
		ringRoots = ints.take(len(ringSizes))
	}
	counterBase, procBase := 0, 0
	for ring, size := range ringSizes {
		sizes := mcsLayers(buf[:0], subSize(ring), d)
		// Rings of different sizes build subtrees of different depths, but
		// the merge root must sit exactly one level above every ring root.
		// Lift each shallow ring's counters uniformly so all ring roots land
		// on maxLevel; a uniform shift preserves the ring-internal
		// parent/child level chain, and nothing reads a counter's absolute
		// level except that chain.
		t.layLayers(counterBase, sizes, d, maxLevel-(len(sizes)-1), ring, &ints)
		t.attachMCS(counterBase, procBase, sizes, subSize(ring), &ints)
		fill(t.ringOf[procBase:procBase+subSize(ring)], ring)
		counterBase += sum(sizes)
		procBase += size
		if multi {
			ringRoots[ring] = counterBase - 1
		} else {
			t.Root = counterBase - 1
		}
	}
	if !multi {
		t.Levels = maxLevel + 1
		return t
	}
	rootLocal := ringSizes[0] - 1 // the spared last processor of ring 0
	root := &t.Counters[counterBase]
	*root = Counter{
		ID:       counterBase,
		Level:    maxLevel + 1,
		Parent:   NoCounter,
		Children: ringRoots,
		Procs:    ints.take(1),
		Local:    rootLocal,
		RingID:   0,
	}
	root.Procs[0] = rootLocal
	t.first[rootLocal] = root.ID
	t.ringOf[rootLocal] = 0
	for _, r := range ringRoots {
		t.Counters[r].Parent = root.ID
	}
	t.Root = root.ID
	t.Levels = maxLevel + 2
	return t
}

// intArena hands out int slices carved from one backing array, each with
// its capacity capped at its length: an append to one counter's Procs or
// Children then reallocates instead of writing into its neighbour's.
type intArena []int

// take carves the next n ints; nil for n == 0, as an unbuilt slice is.
func (a *intArena) take(n int) []int {
	if n == 0 {
		return nil
	}
	s := (*a)[:n:n]
	*a = (*a)[n:]
	return s
}

// newTree allocates a tree of n counters for p processors in three
// allocations whatever its size: the Tree, its counters, and one array
// for every int slice the tree holds — the per-processor tables, carved
// here, and its n−1 child links and p attachments, which the returned
// arena hands out. Every non-root counter is exactly one counter's child
// and every processor is attached exactly once, so the array is exact.
func newTree(kind Kind, p, d, n int) (*Tree, intArena) {
	t := &Tree{Kind: kind, P: p, Degree: d, Counters: make([]Counter, n)}
	ints := intArena(make([]int, n-1+3*p))
	t.first, t.ringOf = ints.take(p), ints.take(p)
	return t, ints
}

// layLayers builds a layered counter hierarchy in place, starting at
// Counters[base]: sizes[k] counters on layer k, each layer-k counter
// linked to a layer-k+1 parent in contiguous groups of d. lift is added
// to every counter's level and ring is every counter's RingID.
func (t *Tree) layLayers(base int, sizes []int, d, lift, ring int, ints *intArena) {
	below := base // first counter of the layer below
	id := base
	for level, n := range sizes {
		for i := 0; i < n; i++ {
			c := &t.Counters[id+i] // zeroed by newTree: no struct copy
			c.ID, c.Level, c.Parent, c.Local, c.RingID = id+i, level+lift, NoCounter, NoProc, ring
			if level > 0 {
				lo := below + i*d
				c.Children = ints.take(min(d, id-lo))
				for j := range c.Children {
					c.Children[j] = lo + j
					t.Counters[lo+j].Parent = id + i
				}
			}
		}
		below = id
		id += n
	}
}

// attachMCS attaches p processors, numbered from procBase, to the MCS
// subtree of layer sizes sizes laid from Counters[base]: the processors
// left after every internal counter's local are spread over the leaves
// as evenly as possible, then the internal counters take one local each,
// in counter order (lower levels first).
func (t *Tree) attachMCS(base, procBase int, sizes []int, p int, ints *intArena) {
	n, nLeaves := sum(sizes), sizes[0]
	leafProcs := p - (n - nLeaves)
	if leafProcs < nLeaves {
		// Unreachable: mcsLayers only stops with enough processors
		// (nLeaves == 1 implies zero internal counters, so leafProcs = p).
		panic("topology: internal error, not enough processors for the leaves")
	}
	next := procBase
	for c := base; c < base+n; c++ {
		share := 1 // an internal counter's local
		if c < base+nLeaves {
			share = leafProcs / nLeaves
			if c-base < leafProcs%nLeaves {
				share++
			}
		}
		procs := ints.take(share)
		for j := range procs {
			procs[j], t.first[next] = next, c
			next++
		}
		t.Counters[c].Procs, t.Counters[c].Local = procs, procs[0]
	}
	if next != procBase+p {
		panic("topology: internal error, processors left over")
	}
}

func fill(xs []int, v int) {
	for i := range xs {
		xs[i] = v
	}
}
