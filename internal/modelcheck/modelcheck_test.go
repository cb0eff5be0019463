package modelcheck

import (
	"strings"
	"testing"

	"softbarrier/internal/topology"
)

func TestDynamicProtocolMCSTrees(t *testing.T) {
	// Exhaustive exploration, one memory operation at a time, of the
	// dynamic-placement protocol over small MCS trees and multiple
	// episodes. Three episodes
	// exercise the full victim hand-off cycle (swap in ep k, victim
	// discovery in ep k+1, re-swap in ep k+2).
	for _, cfg := range []struct {
		p, d, episodes int
	}{
		{2, 2, 3},
		{3, 2, 3},
		{4, 2, 3},
		{5, 2, 2},
		{4, 3, 3},
	} {
		tree := topology.NewMCS(cfg.p, cfg.d)
		c := New(tree, cfg.episodes)
		if err := c.Run(); err != nil {
			t.Fatalf("p=%d d=%d episodes=%d: %v", cfg.p, cfg.d, cfg.episodes, err)
		}
		if c.Explored < 10 {
			t.Errorf("p=%d d=%d: only %d states explored — model too coarse?", cfg.p, cfg.d, c.Explored)
		}
		t.Logf("p=%d d=%d episodes=%d: %d states, no violations", cfg.p, cfg.d, cfg.episodes, c.Explored)
	}
}

func TestDynamicProtocolRingTree(t *testing.T) {
	// Ring-constrained tree: the merge root belongs to ring 0; swaps from
	// ring 1 must be refused without breaking liveness.
	tree := topology.NewRing([]int{3, 2}, 2)
	c := New(tree, 2)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	t.Logf("ring tree: %d states", c.Explored)
}

func TestCheckerRejectsOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized model")
		}
	}()
	New(topology.NewMCS(16, 4), 1)
}

func TestCheckerRejectsZeroEpisodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero episodes")
		}
	}()
	New(topology.NewMCS(2, 2), 0)
}

// Mutation check: the checker must actually catch protocol bugs. We
// reorder the releaser's swap to after the release — the race the
// production implementation avoids by swapping during the ascent — and
// expect a violation (the displaced victim and the victor both occupy the
// root counter in the next episode, and both write its local input cell).
func TestCheckerCatchesLateRootSwap(t *testing.T) {
	tree := topology.NewMCS(4, 2)
	c := New(tree, 3)
	c.sabotageLateRootSwap = true
	err := c.Run()
	if err == nil {
		t.Fatal("sabotaged protocol passed the checker")
	}
	if !strings.Contains(err.Error(), "occupancy") &&
		!strings.Contains(err.Error(), "input cell") &&
		!strings.Contains(err.Error(), "premature") &&
		!strings.Contains(err.Error(), "overflow") &&
		!strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected violation kind: %v", err)
	}
	t.Logf("sabotage detected as: %v", err)
}

// Second mutant: the victor stores evicted before destination and local.
// Every run still completes — the victim looks at evicted only after the
// release, which the whole swap precedes — so nothing but the
// every-state placement check can see it: between the two stores the
// victim is named and its redirect is whatever the counter's previous
// swap left (nothing, the first time). That is the state a reader not
// ordered by the release, or a Reset after a poison, would trust.
func TestCheckerCatchesEarlyPublish(t *testing.T) {
	for _, tree := range []*topology.Tree{topology.NewMCS(4, 2), topology.NewRing([]int{3, 2}, 2)} {
		c := New(tree, 3)
		c.sabotageEarlyPublish = true
		err := c.Run()
		if err == nil {
			t.Fatal("evicted published before destination passed the checker")
		}
		if !strings.Contains(err.Error(), "no destination") && !strings.Contains(err.Error(), "occupancy") {
			t.Fatalf("unexpected violation kind: %v", err)
		}
		t.Logf("sabotage detected as: %v", err)
	}
}

// Third mutant: the counters reverse sense instead of being reset, so an
// add in the wrong direction is the bug to look for. Here the add that
// would complete a counter in an odd episode goes +1: the counter never
// reaches zero, nobody climbs past it, and the episode cannot release.
func TestCheckerCatchesStuckSense(t *testing.T) {
	for _, tree := range []*topology.Tree{topology.NewMCS(4, 2), topology.NewMCS(4, 3), topology.NewRing([]int{3, 2}, 2)} {
		c := New(tree, 3)
		c.sabotageStuckSense = true
		err := c.Run()
		if err == nil {
			t.Fatal("a +1 in an odd episode passed the checker")
		}
		if !strings.Contains(err.Error(), "deadlock") && !strings.Contains(err.Error(), "overflow") {
			t.Fatalf("unexpected violation kind: %v", err)
		}
		t.Logf("sabotage detected as: %v", err)
	}
}

// Fourth mutant: an arrival writes its input cell after its add at its
// first counter instead of before. Another participant's add can then
// complete the counter and fold the cell before it holds this episode's
// contribution.
func TestCheckerCatchesLatePut(t *testing.T) {
	for _, tree := range []*topology.Tree{topology.NewClassic(3, 2), topology.NewMCS(4, 2), topology.NewRing([]int{3, 2}, 2)} {
		c := New(tree, 2)
		c.sabotageLatePut = true
		err := c.Run()
		if err == nil {
			t.Fatal("an input cell written after its add passed the checker")
		}
		if !strings.Contains(err.Error(), "input cell") {
			t.Fatalf("unexpected violation kind: %v", err)
		}
		t.Logf("sabotage detected as: %v", err)
	}
}

// Fifth mutant: the victor hands over destination but not destIn. The
// victim adopts its new first counter with whatever cell destIn held, so
// in the next episode one cell is written twice and the victor's old cell
// not at all. Placement and counts stay correct: only the cells show it.
func TestCheckerCatchesMissingDestIn(t *testing.T) {
	for _, tree := range []*topology.Tree{topology.NewMCS(4, 2), topology.NewMCS(5, 2), topology.NewRing([]int{3, 2}, 2)} {
		c := New(tree, 3)
		c.sabotageNoDestIn = true
		err := c.Run()
		if err == nil {
			t.Fatal("a swap without destIn passed the checker")
		}
		if !strings.Contains(err.Error(), "input cell") {
			t.Fatalf("unexpected violation kind: %v", err)
		}
		t.Logf("sabotage detected as: %v", err)
	}
}
