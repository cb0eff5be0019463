package softbarrier

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestPlacementPolicyCollectiveDifferential checks that predictive
// straggler placement never perturbs collective results: for every
// registered policy, a reconfigurable AllReduce with a non-commutative
// op stays bit-identical to the sequential id-order fold across steady
// episodes, mid-run Grow/Shrink, and the placement rebuilds the
// stragglers trigger.
func TestPlacementPolicyCollectiveDifferential(t *testing.T) {
	op := opMat2()
	all := func(int) bool { return true }

	for _, name := range PlacementNames() {
		name := name
		t.Run("reconfig-"+name, func(t *testing.T) {
			mk, ok := PlacementByName(name)
			if !ok {
				t.Fatalf("no policy %q", name)
			}
			b := NewReconfigurable(6, ReconfigConfig{ReplanEvery: 2},
				WithCollective(op), WithPlacementPolicy(mk()))

			round := 0
			// runRound drives one lockstep AllReduce episode with one
			// participant arriving late (the placement signal) and checks
			// every delivered result against the sequential fold.
			runRound := func(p, straggler int, expect func(int) bool) {
				t.Helper()
				contribs := make([][]byte, p)
				for id := range contribs {
					contribs[id] = mat2Contribution(id, round)
				}
				want := sequentialFold(op, contribs)
				sentinel := bytes.Repeat([]byte{0xAB}, op.Width)
				outs := make([][]byte, p)
				var wg sync.WaitGroup
				for id := 0; id < p; id++ {
					outs[id] = bytes.Clone(sentinel)
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						if id == straggler {
							time.Sleep(500 * time.Microsecond)
						}
						if err := b.AllReduce(id, contribs[id], outs[id]); err != nil {
							t.Errorf("round %d participant %d: %v", round, id, err)
						}
					}(id)
				}
				wg.Wait()
				for id := 0; id < p; id++ {
					if expect(id) {
						if !bytes.Equal(outs[id], want) {
							t.Fatalf("round %d participant %d: got %x, want %x", round, id, outs[id], want)
						}
					} else if !bytes.Equal(outs[id], sentinel) {
						t.Fatalf("round %d shrunk participant %d received a result", round, id)
					}
				}
				round++
			}

			for i := 0; i < 4; i++ {
				runRound(6, 4, all)
			}
			if _, err := b.Grow(2); err != nil {
				t.Fatal(err)
			}
			runRound(6, 4, all) // boundary: grow lands at this release
			if got := b.Participants(); got != 8 {
				t.Fatalf("after grow: %d participants, want 8", got)
			}
			for i := 0; i < 4; i++ {
				runRound(8, 1, all)
			}
			if _, err := b.Shrink(3); err != nil {
				t.Fatal(err)
			}
			runRound(8, 1, func(id int) bool { return id < 5 })
			if got := b.Participants(); got != 5 {
				t.Fatalf("after shrink: %d participants, want 5", got)
			}
			for i := 0; i < 3; i++ {
				runRound(5, 0, all)
			}

			if st := b.ReconfigStats(); name == "static" {
				if st.Placements != 0 {
					t.Fatalf("static policy triggered %d placement rebuilds", st.Placements)
				}
			} else if st.Placements < 1 {
				t.Fatalf("policy %s never rebuilt placement (stats %+v)", name, st)
			}
		})
	}
}

// TestReconfigurablePredictivePlacement drives a reconfigurable barrier
// with one systemic straggler and asserts the predictive machinery end
// to end: the EWMA policy observes the lags, a placement rebuild fires
// at the replan cadence (ReconfigStats.Placements), and the straggler
// ends up in the shallowest slot of the rebuilt MCS epoch. It then moves
// the straggler and asserts the placement follows.
func TestReconfigurablePredictivePlacement(t *testing.T) {
	const p = 8
	mk, ok := PlacementByName("ewma")
	if !ok {
		t.Fatal("no ewma policy")
	}
	// Pin the degree at 2 (against pinTc every measured spread is
	// simultaneous arrival) so the MCS epochs keep their depth diversity —
	// the thing placement exploits — and the policy's orders flow through
	// the placement-only rebuild path (ReconfigStats.Placements) instead of
	// riding a degree change.
	b := NewReconfigurable(p, ReconfigConfig{ReplanEvery: 2, Tc: pinTc}, WithPlacementPolicy(mk()))

	episode := func(straggler int) {
		var wg sync.WaitGroup
		for id := 0; id < p; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				if id == straggler {
					time.Sleep(2 * time.Millisecond)
				}
				b.Wait(id)
			}(id)
		}
		wg.Wait()
	}
	shallowest := func(d []int) int {
		min := d[0]
		for _, v := range d[1:] {
			if v < min {
				min = v
			}
		}
		return min
	}
	deepest := func(d []int) int {
		max := d[0]
		for _, v := range d[1:] {
			if v > max {
				max = v
			}
		}
		return max
	}

	for i := 0; i < 10; i++ {
		episode(5)
	}
	if st := b.ReconfigStats(); st.Placements < 1 {
		t.Fatalf("no placement rebuild after 10 straggler episodes (stats %+v)", st)
	}
	d := b.Depths()
	if shallowest(d) == deepest(d) {
		t.Fatalf("epoch tree has uniform depth %v — placement has nothing to choose", d)
	}
	if d[5] != shallowest(d) {
		t.Fatalf("straggler 5 at depth %d, shallowest is %d (depths %v)", d[5], shallowest(d), d)
	}

	for i := 0; i < 14; i++ {
		episode(2)
	}
	d = b.Depths()
	if d[2] != shallowest(d) {
		t.Fatalf("after straggler moved, id 2 at depth %d, shallowest is %d (depths %v)", d[2], shallowest(d), d)
	}
}
