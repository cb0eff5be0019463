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

// layerSizes returns the per-layer counter counts for n groups reduced by
// degree d until a single root remains: sizes[0] = n, sizes[k+1] =
// ceil(sizes[k]/d).
func layerSizes(n, d int) []int {
	sizes := []int{n}
	for n > 1 {
		n = (n + d - 1) / d
		sizes = append(sizes, n)
	}
	return sizes
}

// NewClassic builds a classic combining tree for p processors with degree
// d: ceil(p/d) leaf counters each holding up to d processors, reduced by
// degree d up to a single root. d ≥ p yields the flat single-counter
// barrier. It panics for p < 1 or d < 2.
func NewClassic(p, d int) *Tree {
	if p < 1 {
		panic("topology: need at least one processor")
	}
	if d < 2 {
		panic("topology: degree must be at least 2")
	}
	nLeaves := (p + d - 1) / d
	sizes := layerSizes(nLeaves, d)
	t := &Tree{Kind: Classic, P: p, Degree: d, Levels: len(sizes)}
	t.buildLayers(sizes, d)

	// Attach processors to leaf counters in contiguous blocks of ≤ d.
	t.first = make([]int, p)
	for i := 0; i < p; i++ {
		leaf := i / d
		t.Counters[leaf].Procs = append(t.Counters[leaf].Procs, i)
		t.first[i] = leaf
	}
	t.ringOf = uniformRing(p, -1)
	return t
}

// NewMCS builds an MCS-style tree for p processors with degree d. Every
// counter has one local processor; leaf counters hold up to d+1 processors
// in total; internal counters have d counter children plus their local
// processor. It panics for p < 1 or d < 2.
func NewMCS(p, d int) *Tree {
	if p < 1 {
		panic("topology: need at least one processor")
	}
	if d < 2 {
		panic("topology: degree must be at least 2")
	}
	// Pick the largest leaf count with enough processors to give every
	// counter a local processor and every leaf at least one processor.
	nLeaves := (p + d) / (d + 1)
	if nLeaves < 1 {
		nLeaves = 1
	}
	var sizes []int
	for {
		sizes = layerSizes(nLeaves, d)
		internals := 0
		for _, s := range sizes[1:] {
			internals += s
		}
		if p-internals >= nLeaves || nLeaves == 1 {
			break
		}
		nLeaves--
	}
	t := &Tree{Kind: MCS, P: p, Degree: d, Levels: len(sizes)}
	t.buildLayers(sizes, d)

	t.first = make([]int, p)
	internals := len(t.Counters) - nLeaves
	leafProcs := p - internals
	if leafProcs < nLeaves {
		// Unreachable: the loop above only stops with enough processors
		// (nLeaves == 1 implies zero internal counters, so leafProcs = p).
		panic("topology: internal error, not enough processors for the leaves")
	}
	// Distribute leafProcs over the leaves as evenly as possible.
	next := 0
	for leaf := 0; leaf < nLeaves; leaf++ {
		share := leafProcs / nLeaves
		if leaf < leafProcs%nLeaves {
			share++
		}
		for j := 0; j < share; j++ {
			t.attach(next, leaf)
			if j == 0 {
				t.Counters[leaf].Local = next
			}
			next++
		}
	}
	// Remaining processors become the locals of internal counters, in
	// counter order (lower levels first).
	for c := nLeaves; c < len(t.Counters); c++ {
		t.attach(next, c)
		t.Counters[c].Local = next
		next++
	}
	if next != p {
		panic("topology: internal error, processors left over")
	}
	t.ringOf = uniformRing(p, -1)
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
// list, a non-positive ring, or a first ring too small to spare its root
// processor (< 2 processors with multiple rings).
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
	t := &Tree{Kind: Ring, P: total, Degree: d}
	t.first = make([]int, total)
	t.ringOf = make([]int, total)

	var ringRoots []int
	procBase := 0
	maxLevel := 0
	multi := len(ringSizes) > 1
	for ring, size := range ringSizes {
		subSize := size
		if multi && ring == 0 {
			subSize-- // ring 0's last processor staffs the merge root
		}
		sub := NewMCS(subSize, d)
		counterBase := len(t.Counters)
		for _, c := range sub.Counters {
			nc := Counter{
				ID:     counterBase + c.ID,
				Level:  c.Level,
				Parent: NoCounter,
				Local:  NoProc,
				RingID: ring,
			}
			if c.Parent != NoCounter {
				nc.Parent = counterBase + c.Parent
			}
			for _, ch := range c.Children {
				nc.Children = append(nc.Children, counterBase+ch)
			}
			for _, p := range c.Procs {
				nc.Procs = append(nc.Procs, procBase+p)
			}
			if c.Local != NoProc {
				nc.Local = procBase + c.Local
			}
			t.Counters = append(t.Counters, nc)
		}
		for i := 0; i < subSize; i++ {
			t.first[procBase+i] = counterBase + sub.first[i]
			t.ringOf[procBase+i] = ring
		}
		ringRoots = append(ringRoots, counterBase+sub.Root)
		if lv := sub.Counters[sub.Root].Level; lv > maxLevel {
			maxLevel = lv
		}
		procBase += size
	}

	if !multi {
		t.Root = ringRoots[0]
		t.Levels = maxLevel + 1
		return t
	}
	// Rings of different sizes build subtrees of different depths, but the
	// merge root must sit exactly one level above every ring root. Lift each
	// shallow ring's counters uniformly so all ring roots land on maxLevel;
	// a uniform shift preserves the ring-internal parent/child level chain,
	// and nothing reads a counter's absolute level except that chain.
	for ring, r := range ringRoots {
		if delta := maxLevel - t.Counters[r].Level; delta > 0 {
			for i := range t.Counters {
				if t.Counters[i].RingID == ring {
					t.Counters[i].Level += delta
				}
			}
		}
	}
	rootLocal := ringSizes[0] - 1 // the spared last processor of ring 0
	root := Counter{
		ID:     len(t.Counters),
		Level:  maxLevel + 1,
		Parent: NoCounter,
		Procs:  []int{rootLocal},
		Local:  rootLocal,
		RingID: 0,
	}
	root.Children = append(root.Children, ringRoots...)
	t.Counters = append(t.Counters, root)
	t.first[rootLocal] = root.ID
	t.ringOf[rootLocal] = 0
	for _, r := range ringRoots {
		t.Counters[r].Parent = root.ID
	}
	t.Root = root.ID
	t.Levels = maxLevel + 2
	return t
}

// buildLayers creates the counter hierarchy given per-layer sizes, linking
// each layer-k counter to a layer-k+1 parent in contiguous groups of d.
func (t *Tree) buildLayers(sizes []int, d int) {
	base := 0
	prevBase := 0
	for level, n := range sizes {
		for i := 0; i < n; i++ {
			t.Counters = append(t.Counters, Counter{
				ID:     base + i,
				Level:  level,
				Parent: NoCounter,
				Local:  NoProc,
				RingID: -1,
			})
		}
		if level > 0 {
			for i := 0; i < sizes[level-1]; i++ {
				parent := base + i/d
				t.Counters[prevBase+i].Parent = parent
				t.Counters[parent].Children = append(t.Counters[parent].Children, prevBase+i)
			}
		}
		prevBase = base
		base += n
	}
	t.Root = len(t.Counters) - 1
}

// attach places processor p on counter c and records it as p's first
// counter.
func (t *Tree) attach(p, c int) {
	t.Counters[c].Procs = append(t.Counters[c].Procs, p)
	t.first[p] = c
}

func uniformRing(p, ring int) []int {
	r := make([]int, p)
	for i := range r {
		r[i] = ring
	}
	return r
}
