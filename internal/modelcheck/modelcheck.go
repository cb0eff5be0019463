// Package modelcheck exhaustively verifies the dynamic-placement barrier
// protocol by explicit-state exploration: it models every lock-protected
// step of the algorithm (victim check, redirect adoption, counter update,
// victor swap, release) as one atomic transition and breadth-first
// explores ALL interleavings of all participants across several episodes,
// checking at every state that
//
//   - the barrier never releases an episode before all participants
//     arrived (safety),
//   - every reachable state can make progress until all episodes complete
//     (deadlock freedom, by construction of the exploration),
//   - each episode releases exactly once, and
//   - at quiescence every counter's occupancy matches its fan-in and all
//     counts are reset (the liveness-critical placement invariant).
//
// The model mirrors the dynamic-placement ascent step for step — the
// root package's one treeCore.arrive with its adopt and victorSwap steps
// (the differential tests in the root package tie the two to the simulator,
// which ties them to each other); state spaces stay tractable for the
// small shapes that already exercise every protocol transition.
package modelcheck

import (
	"fmt"
	"sort"

	"softbarrier/internal/topology"
)

// phase is a participant's position in its episode's step sequence.
type phase uint8

const (
	// phIdle: before the episode's first step (the arrival point).
	phIdle phase = iota
	// phCheck: about to inspect its first counter's eviction fields.
	phCheck
	// phAdopt: redirected; about to claim the destination counter.
	phAdopt
	// phUpdate: about to increment the current counter.
	phUpdate
	// phSwap: completed the current counter; about to swap into it.
	phSwap
	// phWait: finished its ascent; waiting for the release.
	phWait
	// phDone: all episodes completed.
	phDone
)

// procState is one participant's model state.
type procState struct {
	phase   phase
	first   int // its first counter
	cur     int // counter being operated on (phUpdate/phSwap)
	dest    int // adopted destination (phAdopt)
	episode int // episodes completed
}

// counterState is one counter's model state.
type counterState struct {
	count       int
	local       int
	evicted     int
	destination int
}

// state is a full system configuration.
type state struct {
	procs    []procState
	counters []counterState
	released int // episodes released so far
	arrived  int // participants that began the current episode
}

// key encodes a state canonically for the visited set.
func (s *state) key() string {
	b := make([]byte, 0, 8*len(s.procs)+8*len(s.counters)+8)
	for _, p := range s.procs {
		b = append(b, byte(p.phase), byte(p.first+1), byte(p.cur+2), byte(p.dest+2), byte(p.episode))
	}
	for _, c := range s.counters {
		b = append(b, byte(c.count), byte(c.local+1), byte(c.evicted+1), byte(c.destination+2))
	}
	b = append(b, byte(s.released), byte(s.arrived))
	return string(b)
}

func (s *state) clone() *state {
	ns := &state{
		procs:    append([]procState(nil), s.procs...),
		counters: append([]counterState(nil), s.counters...),
		released: s.released,
		arrived:  s.arrived,
	}
	return ns
}

// Checker explores the protocol over a fixed topology.
type Checker struct {
	tree     *topology.Tree
	episodes int

	// Explored counts distinct states visited.
	Explored int

	// sabotageLateRootSwap (tests only) reorders the releaser's swap to
	// AFTER the release broadcast — the race the production implementation
	// explicitly avoids by swapping during the ascent (see DESIGN.md
	// §5.3). The checker must detect the resulting double-occupancy.
	sabotageLateRootSwap bool
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
	return &Checker{tree: tree, episodes: episodes}
}

// initial builds the start state from the topology.
func (c *Checker) initial() *state {
	s := &state{
		procs:    make([]procState, c.tree.P),
		counters: make([]counterState, len(c.tree.Counters)),
	}
	for i := range s.procs {
		s.procs[i] = procState{phase: phIdle, first: c.tree.FirstCounter(i), cur: -1, dest: -1}
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

// step applies participant id's next transition to a copy of s and
// reports a protocol violation if one occurs.
func (c *Checker) step(s *state, id int) (*state, error) {
	ns := s.clone()
	p := &ns.procs[id]
	switch p.phase {
	case phIdle:
		ns.arrived++
		p.phase = phCheck

	case phCheck:
		cn := &ns.counters[p.first]
		if cn.evicted == id {
			cn.evicted = topology.NoProc
			p.dest = cn.destination
			p.phase = phAdopt
		} else {
			p.cur = p.first
			p.phase = phUpdate
		}

	case phAdopt:
		dc := &ns.counters[p.dest]
		if len(c.tree.Counters[p.dest].Children) > 0 {
			dc.local = id
		}
		p.first = p.dest
		p.cur = p.dest
		p.dest = -1
		p.phase = phUpdate

	case phUpdate:
		cn := &ns.counters[p.cur]
		cn.count++
		fanIn := c.tree.Counters[p.cur].FanIn()
		if cn.count > fanIn {
			return nil, fmt.Errorf("counter %d overflowed fan-in %d", p.cur, fanIn)
		}
		if cn.count < fanIn {
			p.phase = phWait
			break
		}
		cn.count = 0
		if p.cur != p.first {
			if c.sabotageLateRootSwap && c.tree.Counters[p.cur].Parent == topology.NoCounter {
				// Buggy ordering: release now, swap afterwards.
				if err := c.release(ns); err != nil {
					return nil, err
				}
				p.phase = phSwap
				break
			}
			p.phase = phSwap
		} else if err := c.advance(ns, id); err != nil {
			return nil, err
		}

	case phSwap:
		cn := &ns.counters[p.cur]
		if cn.local != topology.NoProc && c.ringOK(id, p.cur) {
			cn.evicted = cn.local
			cn.destination = p.first
			cn.local = id
			p.first = p.cur
		}
		if c.sabotageLateRootSwap && c.tree.Counters[p.cur].Parent == topology.NoCounter {
			// The release already happened before this (buggy) late swap.
			p.phase = phIdle
			p.episode++
			break
		}
		if err := c.advance(ns, id); err != nil {
			return nil, err
		}

	case phWait:
		p.phase = phIdle
		p.episode++

	default:
		return nil, fmt.Errorf("participant %d stepped in phase %d", id, p.phase)
	}
	return ns, nil
}

// advance moves participant id from its just-completed counter to the
// parent, or releases the episode at the root.
func (c *Checker) advance(s *state, id int) error {
	p := &s.procs[id]
	parent := c.tree.Counters[p.cur].Parent
	if parent != topology.NoCounter {
		p.cur = parent
		p.phase = phUpdate
		return nil
	}
	// Root completed: release.
	if err := c.release(s); err != nil {
		return err
	}
	p.phase = phIdle
	p.episode++
	return nil
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

// checkQuiescent validates the placement invariant when every participant
// is idle between episodes.
func (c *Checker) checkQuiescent(s *state) error {
	for i := range s.procs {
		if ph := s.procs[i].phase; ph != phIdle && ph != phDone {
			return nil // not quiescent; nothing to check
		}
	}
	occupants := make(map[int]int)
	for i := range s.procs {
		fc := s.procs[i].first
		if cn := &s.counters[fc]; cn.evicted == i {
			fc = cn.destination
		}
		occupants[fc]++
	}
	for i := range s.counters {
		want := c.tree.Counters[i].FanIn() - len(c.tree.Counters[i].Children)
		if occupants[i] != want {
			return fmt.Errorf("quiescent occupancy of counter %d is %d, want %d", i, occupants[i], want)
		}
		if s.counters[i].count != 0 {
			return fmt.Errorf("counter %d count %d at quiescence", i, s.counters[i].count)
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
			if err := c.checkQuiescent(ns); err != nil {
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
