package ringsim

import (
	"math"
	"testing"

	"softbarrier/internal/eventsim"
	"softbarrier/internal/topology"
)

const slot = 1e-6

func transitTime(r *Ring, src, dst int) float64 {
	var sim eventsim.Simulator
	var done float64 = -1
	sim.ScheduleAt(0, func() {
		r.Transit(&sim, src, dst, func(t float64) { done = t })
	})
	sim.Run()
	return done
}

func TestTransitLatencyIsHopsTimesSlot(t *testing.T) {
	r := NewRing(8, slot)
	cases := []struct {
		src, dst, hops int
	}{
		{0, 1, 1}, {0, 7, 7}, {7, 0, 1}, {3, 3, 0}, {5, 2, 5},
	}
	for _, c := range cases {
		r.Reset()
		got := transitTime(r, c.src, c.dst)
		want := float64(c.hops) * slot
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("%d→%d: %v, want %v", c.src, c.dst, got, want)
		}
	}
}

func TestMessagesPipelineOnSharedPath(t *testing.T) {
	// Two messages 0→4 started together share links; the second trails one
	// slot behind (pipelining, not full serialization).
	r := NewRing(8, slot)
	var sim eventsim.Simulator
	var t1, t2 float64
	sim.ScheduleAt(0, func() {
		r.Transit(&sim, 0, 4, func(t float64) { t1 = t })
		r.Transit(&sim, 0, 4, func(t float64) { t2 = t })
	})
	sim.Run()
	if math.Abs(t1-4*slot) > 1e-15 {
		t.Errorf("first message %v, want %v", t1, 4*slot)
	}
	if math.Abs(t2-5*slot) > 1e-15 {
		t.Errorf("second message %v, want %v (one slot behind)", t2, 5*slot)
	}
}

func TestDisjointPathsDoNotInteract(t *testing.T) {
	r := NewRing(8, slot)
	var sim eventsim.Simulator
	var t1, t2 float64
	sim.ScheduleAt(0, func() {
		r.Transit(&sim, 0, 2, func(t float64) { t1 = t })
		r.Transit(&sim, 4, 6, func(t float64) { t2 = t })
	})
	sim.Run()
	if t1 != 2*slot || t2 != 2*slot {
		t.Errorf("disjoint messages %v, %v; want both %v", t1, t2, 2*slot)
	}
}

func TestRingPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewRing(1, slot) },
		func() { NewRing(4, 0) },
		func() { NewRing(4, slot).MaxLinkUtilization(0) },
		func() {
			r := NewRing(4, slot)
			var sim eventsim.Simulator
			r.Transit(&sim, 0, 9, nil)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFlatGatherHotSpot(t *testing.T) {
	r := NewRing(32, slot)
	res := FlatGather(r)
	if res.Messages != 31 {
		t.Fatalf("messages = %d", res.Messages)
	}
	// The last link into the home node carries all 31 messages: completion
	// is at least 31 slots, and that link is (nearly) saturated.
	if res.Completion < 31*slot-1e-15 {
		t.Errorf("completion %v below the hot-spot floor %v", res.Completion, 31*slot)
	}
	if res.MaxLinkUtilization < 0.9 {
		t.Errorf("hot link utilization %v, want ≈1", res.MaxLinkUtilization)
	}
	// Total traffic is the full Σ hops ≈ N²/2.
	if want := float64(31*32/2) * slot; math.Abs(res.TotalTraffic-want) > 1e-12 {
		t.Errorf("flat traffic %v, want %v", res.TotalTraffic, want)
	}
}

func TestTreeGatherSavesBandwidth(t *testing.T) {
	// On a unidirectional ring any gather needs Ω(N) propagation, so the
	// tree's win is bandwidth: its locality-homed counters cut the total
	// link occupancy from Θ(N²) to Θ(N·d) — Yew/Tzeng/Lawrie's point —
	// and lower the busiest link's load.
	const n = 64
	flat := FlatGather(NewRing(n, slot))
	tree := TreeGather(NewRing(n, slot), topology.NewClassic(n, 4))
	if tree.TotalTraffic >= flat.TotalTraffic/2 {
		t.Errorf("tree traffic %v not ≪ flat traffic %v", tree.TotalTraffic, flat.TotalTraffic)
	}
	if tree.MaxLinkUtilization >= flat.MaxLinkUtilization {
		t.Errorf("tree max utilization %v not below flat %v",
			tree.MaxLinkUtilization, flat.MaxLinkUtilization)
	}
	if tree.Messages <= flat.Messages {
		t.Errorf("tree sends %d messages, flat %d — tree sends more (smaller) messages",
			tree.Messages, flat.Messages)
	}
	// Neither scheme escapes the ring's Ω(N) propagation floor.
	const eps = 1e-12
	if tree.Completion < float64(n-1)*slot/2-eps || flat.Completion < float64(n-1)*slot-eps {
		t.Errorf("completions below propagation floor: tree %v flat %v", tree.Completion, flat.Completion)
	}
}

func TestCounterHomesLocality(t *testing.T) {
	tr := topology.NewClassic(64, 4)
	homes := CounterHomes(tr)
	// A leaf's home is its last member; every member's forward distance to
	// it is < d.
	r := NewRing(64, slot)
	for i := range tr.Counters {
		c := &tr.Counters[i]
		if len(c.Children) > 0 {
			continue
		}
		for _, p := range c.Procs {
			if h := (homes[i] - p + r.N) % r.N; h >= 4 {
				t.Errorf("proc %d is %d hops from its leaf home", p, h)
			}
		}
	}
	// Root home is the last node.
	if homes[tr.Root] != 63 {
		t.Errorf("root home %d, want 63", homes[tr.Root])
	}
}

func TestTreeGatherMessageCount(t *testing.T) {
	// One message per processor plus one per non-root counter.
	n := 64
	tr := topology.NewClassic(n, 4)
	res := TreeGather(NewRing(n, slot), tr)
	want := n + tr.NumCounters() - 1
	if res.Messages != want {
		t.Fatalf("messages = %d, want %d", res.Messages, want)
	}
}

func TestTreeGatherSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	TreeGather(NewRing(8, slot), topology.NewClassic(16, 4))
}
