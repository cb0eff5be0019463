// Package modelcheck exhaustively verifies the dynamic-placement barrier
// protocol by explicit-state exploration. The runtime's ascent takes no
// lock, so the model's transitions are the algorithm's single memory
// operations — the victim's load of evicted, its clearing store, its read
// of destination, its write of local (and read of destIn); the write of
// its input cell; a counter's fetch-and-add, up in even episodes and down
// in odd, which when it completes the counter reads the counter's input
// cells and writes its own at the parent (the commutative fold); the
// victor's read of local and its three stores; the release — and the
// checker breadth-first explores ALL interleavings of all participants'
// operations across several episodes, checking that
//
//   - the barrier never releases an episode before all participants
//     arrived (safety),
//   - every reachable state can make progress until all episodes complete
//     (deadlock freedom, by construction of the exploration),
//   - each episode releases exactly once,
//   - no count leaves [0, fan-in], and at quiescence every count is 0 or
//     its fan-in by the parity of episodes completed,
//   - every input cell is written once an episode, and each counter's
//     completer finds all of its fan-in cells written in this episode, and
//   - at EVERY state, between any two memory operations, resolving each
//     participant's pending eviction as it would itself gives every
//     counter exactly its fan-in's worth of occupants (the
//     liveness-critical placement invariant; it holding mid-swap is what
//     "destination and local are written before evicted publishes them"
//     buys).
//
// The model mirrors the dynamic-placement ascent operation for operation —
// the root package's one treeCore.arrive with its adopt and victorSwap
// steps (the differential tests in the root package tie the two to the
// simulator, which ties them to each other); state spaces stay tractable
// for the small shapes that already exercise every protocol transition.
// Cells are laid out as the runtime lays them out, a counter's processors
// (the local one first) then its children.
package modelcheck

import (
	"fmt"
	"sort"

	"softbarrier/internal/topology"
)

// phase is a participant's program counter: the memory operation it
// performs next.
type phase uint8

const (
	// phIdle: before the episode's first operation (the arrival point).
	phIdle phase = iota
	// Victim side (adopt). phLoadEvicted: about to load its first
	// counter's evicted entry.
	phLoadEvicted
	// phClearEvicted: found itself named; about to clear the entry.
	phClearEvicted
	// phReadDest: about to read the counter's destination.
	phReadDest
	// phClaimLocal: about to write itself into the destination's local
	// slot (and, privately, make the destination its first counter and
	// destIn its input cell).
	phClaimLocal
	// phPut: about to write its input cell.
	phPut
	// phAdd: about to fetch-and-add the current counter, ±1 by episode parity.
	phAdd
	// Victor side (victorSwap). phReadLocal: completed a counter above
	// its own; about to read the counter's local slot.
	phReadLocal
	// phWriteDest: about to write the counter it vacates into destination.
	phWriteDest
	// phWriteLocal: about to write itself into the local slot.
	phWriteLocal
	// phPublish: about to store the victim's id into evicted.
	phPublish
	// phRelease: completed the root; about to open the gate.
	phRelease
	// phWait: finished its ascent; waiting for the release.
	phWait
	// phDone: all episodes completed.
	phDone
	// phLatePut (sabotageLatePut only): added at its first counter without
	// completing it; about to write its input cell, then wait.
	phLatePut
)

// procState is one participant's model state.
type procState struct {
	phase   phase
	first   int // its first counter
	in      int // its input cell at first
	cur     int // counter being operated on (phAdd … phPublish)
	dest    int // destination read from the stale counter (phClaimLocal)
	victim  int // local slot's occupant read by the victor (phWriteDest … phPublish)
	episode int // episodes completed
}

// counterState is one counter's model state.
type counterState struct {
	count       int
	local       int
	evicted     int
	destination int
	destIn      int
}

// state is a full system configuration.
type state struct {
	procs    []procState
	counters []counterState
	cells    []int // the episode each input cell was last written in
	released int   // episodes released so far
	arrived  int   // participants that began the current episode
}

// key encodes a state canonically for the visited set.
func (s *state) key() string {
	b := make([]byte, 0, 8*len(s.procs)+8*len(s.counters)+8)
	for _, p := range s.procs {
		b = append(b, byte(p.phase), byte(p.first+1), byte(p.in), byte(p.cur+2), byte(p.dest+2), byte(p.victim+1), byte(p.episode))
	}
	for _, c := range s.counters {
		b = append(b, byte(c.count), byte(c.local+1), byte(c.evicted+1), byte(c.destination+2), byte(c.destIn))
	}
	for _, e := range s.cells {
		b = append(b, byte(e+1))
	}
	b = append(b, byte(s.released), byte(s.arrived))
	return string(b)
}

func (s *state) clone() *state {
	ns := &state{
		procs:    append([]procState(nil), s.procs...),
		counters: append([]counterState(nil), s.counters...),
		cells:    append([]int(nil), s.cells...),
		released: s.released,
		arrived:  s.arrived,
	}
	return ns
}

// Checker explores the protocol over a fixed topology.
type Checker struct {
	tree     *topology.Tree
	episodes int
	// in[c] is counter c's first input cell, up[c] its cell at the parent
	// (past every input at the root), procIn[i] participant i's cell.
	in, up, procIn []int

	// Explored counts distinct states visited.
	Explored int

	// sabotageLateRootSwap (tests only) reorders the releaser's swap to
	// AFTER the release — the race the production implementation
	// explicitly avoids by swapping during the ascent (see DESIGN.md
	// §5.3). The checker must detect the resulting double-occupancy.
	sabotageLateRootSwap bool
	// sabotageEarlyPublish (tests only) makes the victor store evicted
	// first and destination and local after it. The checker must detect
	// the state in between, where the victim is already named and its
	// redirect still points wherever the previous swap left it.
	sabotageEarlyPublish bool
	// sabotageStuckSense (tests only) makes the add that would complete a
	// counter in an odd episode go +1: the counter then never completes.
	sabotageStuckSense bool
	// sabotageLatePut (tests only) writes an arrival's input cell after its
	// add at its first counter, so a completer can fold it unwritten.
	sabotageLatePut bool
	// sabotageNoDestIn (tests only) makes the victor leave destIn alone: its
	// victim adopts the destination with a stale input cell.
	sabotageNoDestIn bool
}

// New creates a checker for the given tree and episode count. Trees with
// more than ~6 participants explode combinatorially; the constructor
// rejects configurations that would.
func New(tree *topology.Tree, episodes int) *Checker {
	if tree.P > 6 {
		panic("modelcheck: state space too large beyond 6 participants")
	}
	if episodes < 1 {
		panic("modelcheck: need at least one episode")
	}
	c := &Checker{tree: tree, episodes: episodes, in: make([]int, len(tree.Counters)), up: make([]int, len(tree.Counters)), procIn: make([]int, tree.P)}
	n := 0
	for i := range tree.Counters {
		c.in[i], n = n, n+tree.Counters[i].FanIn()
	}
	c.up[tree.Root] = n
	for i := range tree.Counters {
		in := c.in[i]
		for _, p := range tree.Counters[i].Procs {
			c.procIn[p], in = in, in+1
		}
		for _, ch := range tree.Counters[i].Children {
			c.up[ch], in = in, in+1
		}
	}
	return c
}

// initial builds the start state from the topology.
func (c *Checker) initial() *state {
	s := &state{
		procs:    make([]procState, c.tree.P),
		counters: make([]counterState, len(c.tree.Counters)),
		cells:    make([]int, c.up[c.tree.Root]+1),
	}
	for i := range s.procs {
		s.procs[i] = procState{phase: phIdle, first: c.tree.FirstCounter(i), in: c.procIn[i], cur: -1, dest: -1, victim: topology.NoProc}
	}
	for i := range s.cells {
		s.cells[i] = -1
	}
	for i := range s.counters {
		tc := &c.tree.Counters[i]
		s.counters[i] = counterState{local: tc.Local, evicted: topology.NoProc, destination: topology.NoCounter}
	}
	return s
}

// enabled returns the participants with a pending transition.
func (c *Checker) enabled(s *state) []int {
	var out []int
	for i := range s.procs {
		p := &s.procs[i]
		switch p.phase {
		case phDone:
		case phIdle:
			// May start its next episode once the previous one released.
			if p.episode == s.released && p.episode < c.episodes {
				out = append(out, i)
			}
		case phWait:
			// Wakes when its episode releases.
			if s.released > p.episode {
				out = append(out, i)
			}
		default:
			out = append(out, i)
		}
	}
	return out
}

// step applies participant id's next memory operation to a copy of s and
// reports a protocol violation if one occurs.
func (c *Checker) step(s *state, id int) (*state, error) {
	ns := s.clone()
	p := &ns.procs[id]
	switch p.phase {
	case phIdle:
		ns.arrived++
		p.phase = phLoadEvicted

	case phLoadEvicted:
		if ns.counters[p.first].evicted == id {
			p.phase = phClearEvicted
		} else {
			p.cur = p.first
			p.phase = c.putPhase()
		}

	case phClearEvicted:
		ns.counters[p.first].evicted = topology.NoProc
		p.phase = phReadDest

	case phReadDest:
		p.dest = ns.counters[p.first].destination
		p.phase = phClaimLocal

	case phClaimLocal:
		if len(c.tree.Counters[p.dest].Children) > 0 {
			ns.counters[p.dest].local = id
		}
		p.in = ns.counters[p.first].destIn
		p.first, p.cur, p.dest = p.dest, p.dest, -1
		p.phase = c.putPhase()

	case phPut, phLatePut:
		if err := put(ns, p.in, p.episode); err != nil {
			return nil, err
		}
		if p.phase == phPut {
			p.phase = phAdd
		} else {
			p.phase = phWait
		}

	case phAdd:
		cn := &ns.counters[p.cur]
		fanIn := c.tree.Counters[p.cur].FanIn()
		step, full := 1, fanIn
		if p.episode%2 == 1 {
			step, full = -1, 0
			if c.sabotageStuckSense && cn.count == 1 {
				step = 1
			}
		}
		cn.count += step
		if cn.count > fanIn || cn.count < 0 {
			return nil, fmt.Errorf("counter %d overflowed fan-in %d: count %d", p.cur, fanIn, cn.count)
		}
		if cn.count == full {
			// The completer folds the counter's inputs into its own.
			if err := c.fold(ns, p.cur, p.episode); err != nil {
				return nil, err
			}
		}
		switch { // the last arriver moves on; there is no reset
		case cn.count != full && c.sabotageLatePut && p.cur == p.first:
			p.phase = phLatePut
		case cn.count != full:
			p.phase = phWait
		case p.cur == p.first:
			c.advance(ns, id)
		case c.sabotageLateRootSwap && c.tree.Counters[p.cur].Parent == topology.NoCounter:
			// Buggy ordering: release now, swap afterwards.
			if err := c.release(ns); err != nil {
				return nil, err
			}
			p.phase = phReadLocal
		default:
			p.phase = phReadLocal
		}

	case phReadLocal:
		p.victim = ns.counters[p.cur].local
		switch {
		case p.victim == topology.NoProc || !c.ringOK(id, p.cur):
			p.victim = topology.NoProc
			c.swapDone(ns, id)
		case c.sabotageEarlyPublish:
			p.phase = phPublish
		default:
			p.phase = phWriteDest
		}

	case phWriteDest:
		// destIn rides with destination: nobody reads either before
		// evicted publishes them.
		ns.counters[p.cur].destination = p.first
		if !c.sabotageNoDestIn {
			ns.counters[p.cur].destIn = p.in
		}
		p.phase = phWriteLocal

	case phWriteLocal:
		ns.counters[p.cur].local = id
		if c.sabotageEarlyPublish {
			c.swapDone(ns, id)
		} else {
			p.phase = phPublish
		}

	case phPublish:
		ns.counters[p.cur].evicted = p.victim
		if c.sabotageEarlyPublish {
			p.phase = phWriteDest
		} else {
			c.swapDone(ns, id)
		}

	case phRelease:
		if err := c.release(ns); err != nil {
			return nil, err
		}
		p.phase = phIdle
		p.episode++

	case phWait:
		p.phase = phIdle
		p.episode++

	default:
		return nil, fmt.Errorf("participant %d stepped in phase %d", id, p.phase)
	}
	return ns, nil
}

// swapDone ends participant id's swap at its current counter: if it
// displaced a victim the counter becomes its first (a write to its own
// slot, seen by nobody else, so it rides on the swap's last operation),
// and the ascent moves on.
func (c *Checker) swapDone(s *state, id int) {
	p := &s.procs[id]
	if p.victim != topology.NoProc {
		// The local slot's input cell is its counter's first.
		p.first, p.in, p.victim = p.cur, c.in[p.cur], topology.NoProc
	}
	if c.sabotageLateRootSwap && c.tree.Counters[p.cur].Parent == topology.NoCounter {
		// The release already happened before this (buggy) late swap.
		p.phase = phIdle
		p.episode++
		return
	}
	c.advance(s, id)
}

// advance moves participant id from its just-completed counter to the
// parent's add, or at the root to the release.
func (c *Checker) advance(s *state, id int) {
	p := &s.procs[id]
	if parent := c.tree.Counters[p.cur].Parent; parent != topology.NoCounter {
		p.cur = parent
		p.phase = phAdd
		return
	}
	p.phase = phRelease
}

// putPhase is where an arrival goes once it knows its first counter: its
// input cell, then the add; the sabotaged order adds first.
func (c *Checker) putPhase() phase {
	if c.sabotageLatePut {
		return phAdd
	}
	return phPut
}

// put writes input cell in during episode, which must not have written it.
func put(s *state, in, episode int) error {
	if s.cells[in] == episode {
		return fmt.Errorf("input cell %d written twice in episode %d", in, episode)
	}
	s.cells[in] = episode
	return nil
}

// fold is counter cn's completer reading its input cells, each of which
// must hold this episode's write, and writing its own cell at the parent.
func (c *Checker) fold(s *state, cn, episode int) error {
	for in := c.in[cn]; in < c.in[cn]+c.tree.Counters[cn].FanIn(); in++ {
		if s.cells[in] != episode {
			return fmt.Errorf("counter %d's completer read input cell %d unwritten in episode %d", cn, in, episode)
		}
	}
	return put(s, c.up[cn], episode)
}

// release fires the episode's release, checking the safety property.
func (c *Checker) release(s *state) error {
	if s.arrived < c.tree.P {
		return fmt.Errorf("premature release: only %d of %d participants arrived", s.arrived, c.tree.P)
	}
	s.released++
	s.arrived = 0
	return nil
}

func (c *Checker) ringOK(id, counter int) bool {
	return c.tree.Counters[counter].RingID == c.tree.RingOf(id)
}

// home is the counter participant i's next ascent starts from, as i itself
// would resolve it from the state: mid-adopt, the redirect it is
// following; otherwise its first counter, or that counter's destination
// while its evicted entry names i.
func home(s *state, i int) int {
	p := &s.procs[i]
	switch p.phase {
	case phReadDest:
		return s.counters[p.first].destination
	case phClaimLocal:
		return p.dest
	}
	if cn := &s.counters[p.first]; cn.evicted == i {
		return cn.destination
	}
	return p.first
}

// checkPlacement validates the placement invariant, which holds between
// any two memory operations: every counter has exactly its fan-in's worth
// of occupants once pending evictions are resolved. When every
// participant is idle between episodes it also checks every count stands
// at the fan-in after an odd number of them and at zero after an even one.
func (c *Checker) checkPlacement(s *state) error {
	occupants := make([]int, len(s.counters))
	quiescent := true
	for i := range s.procs {
		h := home(s, i)
		if h == topology.NoCounter {
			return fmt.Errorf("participant %d is evicted to no destination", i)
		}
		occupants[h]++
		if ph := s.procs[i].phase; ph != phIdle && ph != phDone {
			quiescent = false
		}
	}
	for i := range s.counters {
		want := c.tree.Counters[i].FanIn() - len(c.tree.Counters[i].Children)
		if occupants[i] != want {
			return fmt.Errorf("occupancy of counter %d is %d, want %d", i, occupants[i], want)
		}
		if rest := c.tree.Counters[i].FanIn() * (s.released % 2); quiescent && s.counters[i].count != rest {
			return fmt.Errorf("counter %d count %d at quiescence after %d episodes, want %d", i, s.counters[i].count, s.released, rest)
		}
	}
	return nil
}

// Run explores every interleaving. It returns an error describing the
// first violation found (with no violation it returns nil after visiting
// the full reachable state space).
func (c *Checker) Run() error {
	init := c.initial()
	visited := map[string]bool{init.key(): true}
	queue := []*state{init}
	c.Explored = 1
	finals := 0

	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]

		en := c.enabled(s)
		if len(en) == 0 {
			// Terminal: legal only if every participant finished all
			// episodes.
			done := true
			for i := range s.procs {
				if s.procs[i].episode < c.episodes {
					done = false
					break
				}
			}
			if !done {
				return fmt.Errorf("deadlock: %s", describe(s))
			}
			if s.released != c.episodes {
				return fmt.Errorf("terminal state released %d episodes, want %d", s.released, c.episodes)
			}
			finals++
			continue
		}
		for _, id := range en {
			ns, err := c.step(s, id)
			if err != nil {
				return err
			}
			// Participants that have completed all episodes park in
			// phDone so termination detection is uniform.
			for i := range ns.procs {
				if ns.procs[i].phase == phIdle && ns.procs[i].episode >= c.episodes {
					ns.procs[i].phase = phDone
				}
			}
			if err := c.checkPlacement(ns); err != nil {
				return err
			}
			k := ns.key()
			if !visited[k] {
				visited[k] = true
				c.Explored++
				queue = append(queue, ns)
			}
		}
	}
	if finals == 0 {
		return fmt.Errorf("no terminal state reached")
	}
	return nil
}

// describe renders a state for diagnostics.
func describe(s *state) string {
	var parts []string
	for i := range s.procs {
		p := &s.procs[i]
		parts = append(parts, fmt.Sprintf("p%d{ph=%d fc=%d ep=%d}", i, p.phase, p.first, p.episode))
	}
	sort.Strings(parts)
	return fmt.Sprintf("released=%d arrived=%d %v", s.released, s.arrived, parts)
}
