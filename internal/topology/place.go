package topology

import "fmt"

// Clone returns a deep copy of the tree, so a simulation can mutate
// placement without disturbing the caller's tree. Like a builder it
// allocates three times whatever the tree's size.
func (t *Tree) Clone() *Tree {
	n := len(t.first) + len(t.ringOf)
	for i := range t.Counters {
		n += len(t.Counters[i].Children) + len(t.Counters[i].Procs)
	}
	ints := intArena(make([]int, n))
	nt := &Tree{
		Kind:     t.Kind,
		P:        t.P,
		Degree:   t.Degree,
		Counters: make([]Counter, len(t.Counters)),
		Root:     t.Root,
		Levels:   t.Levels,
		first:    ints.clone(t.first),
		ringOf:   ints.clone(t.ringOf),
	}
	for i, c := range t.Counters {
		c.Children = ints.clone(c.Children)
		c.Procs = ints.clone(c.Procs)
		nt.Counters[i] = c
	}
	return nt
}

// clone carves a copy of src.
func (a *intArena) clone(src []int) []int {
	dst := a.take(len(src))
	copy(dst, src)
	return dst
}

// CanSwap reports whether processor victor, currently placed on counter
// from, may take over the local slot of counter target. A swap is allowed
// when target is a proper ancestor of from, holds a local processor to
// displace, and lies in the victor's ring (ring-constrained trees never
// move processors across rings; the merge root has no local slot so it can
// never be a target).
func (t *Tree) CanSwap(victor, target int) bool {
	from := t.first[victor]
	if target == from {
		return false
	}
	tc := &t.Counters[target]
	if tc.Local == NoProc {
		return false
	}
	if tc.RingID != t.ringOf[victor] {
		return false
	}
	// target must be an ancestor of from.
	for c := t.Counters[from].Parent; c != NoCounter; c = t.Counters[c].Parent {
		if c == target {
			return true
		}
	}
	return false
}

// Swap moves processor victor into the local slot of counter target,
// displacing the victim (target's previous local) into the victor's old
// slot. It returns the victim processor ID. Fan-ins are unchanged. Callers
// should check CanSwap first; Swap panics on an illegal swap.
func (t *Tree) Swap(victor, target int) (victim int) {
	if !t.CanSwap(victor, target) {
		panic(fmt.Sprintf("topology: illegal swap of proc %d to counter %d", victor, target))
	}
	from := t.first[victor]
	victim = t.Counters[target].Local

	// Replace victor with victim on the old counter.
	replaceProc(&t.Counters[from], victor, victim)
	if t.Counters[from].Local == victor {
		t.Counters[from].Local = victim
	}
	// Replace victim with victor on the target counter.
	replaceProc(&t.Counters[target], victim, victor)
	t.Counters[target].Local = victor

	t.first[victor] = target
	t.first[victim] = from
	return victim
}

func replaceProc(c *Counter, old, new int) {
	for i, p := range c.Procs {
		if p == old {
			c.Procs[i] = new
			return
		}
	}
	panic(fmt.Sprintf("topology: processor %d not attached to counter %d", old, c.ID))
}

// Validate checks the structural invariants of the tree and returns an
// error describing the first violation found, or nil. Simulations validate
// trees after every swap in testing builds.
func (t *Tree) Validate() error {
	if t.P < 1 {
		return fmt.Errorf("topology: no processors")
	}
	if len(t.first) != t.P {
		return fmt.Errorf("topology: first-counter table has %d entries for %d processors", len(t.first), t.P)
	}
	if t.Root < 0 || t.Root >= len(t.Counters) {
		return fmt.Errorf("topology: root %d out of range", t.Root)
	}
	if t.Counters[t.Root].Parent != NoCounter {
		return fmt.Errorf("topology: root has a parent")
	}

	seen := make([]int, t.P) // attachment count per processor
	roots := 0
	for i := range t.Counters {
		c := &t.Counters[i]
		if c.ID != i {
			return fmt.Errorf("topology: counter %d has ID %d", i, c.ID)
		}
		if c.Parent == NoCounter {
			roots++
		} else {
			p := &t.Counters[c.Parent]
			if p.Level != c.Level+1 {
				return fmt.Errorf("topology: counter %d at level %d has parent at level %d", i, c.Level, p.Level)
			}
			if !contains(p.Children, i) {
				return fmt.Errorf("topology: counter %d missing from parent %d children", i, c.Parent)
			}
		}
		for _, ch := range c.Children {
			if t.Counters[ch].Parent != i {
				return fmt.Errorf("topology: child %d of counter %d has parent %d", ch, i, t.Counters[ch].Parent)
			}
		}
		if c.FanIn() < 1 {
			return fmt.Errorf("topology: counter %d has fan-in 0", i)
		}
		for _, p := range c.Procs {
			if p < 0 || p >= t.P {
				return fmt.Errorf("topology: counter %d attaches invalid processor %d", i, p)
			}
			seen[p]++
			if t.first[p] != i {
				return fmt.Errorf("topology: processor %d attached to counter %d but first counter is %d", p, i, t.first[p])
			}
		}
		if c.Local != NoProc && (len(c.Procs) == 0 || c.Procs[0] != c.Local) {
			return fmt.Errorf("topology: counter %d local %d is not its first processor", i, c.Local)
		}
	}
	if roots != 1 {
		return fmt.Errorf("topology: %d parentless counters, want 1", roots)
	}
	for p, n := range seen {
		if n != 1 {
			return fmt.Errorf("topology: processor %d attached %d times", p, n)
		}
	}
	// Every counter must reach the root (no cycles, single component).
	for i := range t.Counters {
		c, steps := i, 0
		for t.Counters[c].Parent != NoCounter {
			c = t.Counters[c].Parent
			if steps++; steps > len(t.Counters) {
				return fmt.Errorf("topology: cycle above counter %d", i)
			}
		}
		if c != t.Root {
			return fmt.Errorf("topology: counter %d reaches %d, not root %d", i, c, t.Root)
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Stats summarizes a tree's shape.
type Stats struct {
	Counters  int     // number of counters
	Levels    int     // counter layers
	MaxFanIn  int     // largest fan-in
	MeanDepth float64 // mean over processors of Depth(FirstCounter)
	MaxDepth  int     // largest processor depth
}

// ShapeStats computes the tree's shape summary.
func (t *Tree) ShapeStats() Stats {
	s := Stats{Counters: len(t.Counters), Levels: t.Levels, MaxFanIn: t.MaxFanIn()}
	total := 0
	for p := 0; p < t.P; p++ {
		d := t.Depth(t.first[p])
		total += d
		if d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	s.MeanDepth = float64(total) / float64(t.P)
	return s
}
