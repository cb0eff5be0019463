package softbarrier

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softbarrier/internal/sor"
)

// barrierUnderTest enumerates every barrier implementation for the shared
// conformance tests.
func barriersUnderTest(p int) map[string]Barrier {
	flat := p
	if flat < 2 {
		flat = 2
	}
	return map[string]Barrier{
		"central":       NewCentral(p),
		"tree-d2":       NewCombiningTree(p, 2),
		"tree-d4":       NewCombiningTree(p, 4),
		"tree-flat":     NewCombiningTree(p, flat),
		"mcs-d4":        NewMCSTree(p, 4),
		"dynamic":       NewDynamic(p, 4),
		"adaptive":      NewReconfigurable(p, ReconfigConfig{ReplanEvery: 4}),
		"dissemination": NewDissemination(p),
		"tournament":    NewTournament(p),
	}
}

// checkBarrier runs p goroutines through episodes episodes and fails if any
// participant ever crosses the barrier before all have arrived.
func checkBarrier(t *testing.T, b Barrier, p, episodes int) {
	t.Helper()
	var arrived atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	fail := make(chan string, p*episodes)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for k := 0; k < episodes; k++ {
				arrived.Add(1)
				b.Wait(id)
				if got := arrived.Load(); got < int64((k+1)*p) {
					fail <- "crossed barrier early"
					return
				}
			}
		}(id)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if got := arrived.Load(); got != int64(p*episodes) {
		t.Fatalf("total arrivals %d, want %d", got, p*episodes)
	}
}

func TestBarrierConformance(t *testing.T) {
	const p, episodes = 8, 50
	for name, b := range barriersUnderTest(p) {
		b := b
		t.Run(name, func(t *testing.T) {
			if b.Participants() != p {
				t.Fatalf("Participants() = %d, want %d", b.Participants(), p)
			}
			checkBarrier(t, b, p, episodes)
		})
	}
}

func TestBarrierSingleParticipant(t *testing.T) {
	for name, b := range barriersUnderTest(1) {
		b := b
		t.Run(name, func(t *testing.T) {
			for k := 0; k < 10; k++ {
				b.Wait(0) // must never block
			}
		})
	}
}

func TestBarrierWithStaggeredArrivals(t *testing.T) {
	const p, episodes = 6, 20
	for name, b := range barriersUnderTest(p) {
		b := b
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			wg.Add(p)
			for id := 0; id < p; id++ {
				go func(id int) {
					defer wg.Done()
					for k := 0; k < episodes; k++ {
						if (k+id)%3 == 0 {
							time.Sleep(time.Duration(id) * 50 * time.Microsecond)
						}
						b.Wait(id)
					}
				}(id)
			}
			wg.Wait()
		})
	}
}

func TestCheckIDPanics(t *testing.T) {
	for name, b := range barriersUnderTest(4) {
		b := b
		t.Run(name, func(t *testing.T) {
			for _, id := range []int{-1, 4} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("Wait(%d) did not panic", id)
						}
					}()
					b.Wait(id)
				}()
			}
		})
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"central-0":           func() { NewCentral(0) },
		"tree-0":              func() { NewCombiningTree(0, 4) },
		"tree-degree-1":       func() { NewCombiningTree(8, 1) },
		"adaptive-0":          func() { NewReconfigurable(0, ReconfigConfig{ReplanEvery: 1}) },
		"adaptive-neg-tc":     func() { NewReconfigurable(4, ReconfigConfig{ReplanEvery: 1, Tc: -1}) },
		"adaptive-neg-sigma":  func() { NewReconfigurable(4, ReconfigConfig{InitialSigma: -1e-3}) },
		"adaptive-neg-replan": func() { NewReconfigurable(4, ReconfigConfig{ReplanEvery: -1}) },
		"dynamic-degree-1":    func() { NewDynamic(8, 1) },
	} {
		f := f
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

func TestPhasedBarrierOverlapsWork(t *testing.T) {
	// Between Arrive and Await a participant may do independent work; the
	// episode must not complete before every Arrive, and Await must not
	// return before the episode completes.
	const p = 4
	for _, b := range []PhasedBarrier{NewCentral(p), NewCombiningTree(p, 2), NewDynamic(p, 2), NewReconfigurable(p, ReconfigConfig{ReplanEvery: 2})} {
		var arrived atomic.Int64
		var wg sync.WaitGroup
		wg.Add(p)
		bad := make(chan string, p)
		for id := 0; id < p; id++ {
			go func(id int) {
				defer wg.Done()
				for k := 0; k < 20; k++ {
					arrived.Add(1)
					b.Arrive(id)
					// fuzzy-barrier slack region: independent work
					time.Sleep(10 * time.Microsecond)
					b.Await(id)
					if arrived.Load() < int64((k+1)*p) {
						bad <- "Await returned before all Arrive calls"
						return
					}
				}
			}(id)
		}
		wg.Wait()
		select {
		case msg := <-bad:
			t.Fatalf("%T: %s", b, msg)
		default:
		}
	}
}

func TestTreeBarrierShapeAccessors(t *testing.T) {
	b := NewCombiningTree(64, 4)
	if b.Degree() != 4 || b.Levels() != 3 {
		t.Fatalf("degree %d levels %d, want 4 and 3", b.Degree(), b.Levels())
	}
	m := NewMCSTree(64, 4)
	if m.Degree() != 4 {
		t.Fatalf("MCS degree %d", m.Degree())
	}
}

func TestDynamicSlowParticipantMigratesToRoot(t *testing.T) {
	// The paper's central claim for dynamic placement: a systemically slow
	// participant ends up attached to the root, synchronizing in depth 1.
	const p = 16
	b := NewDynamic(p, 4)
	slow := 3
	startDepth := b.DepthOf(slow)
	// One goroutine issues every arrival, the slow id's last, and then
	// collects every release: who arrives last is the test's input, not
	// the scheduler's output.
	for k := 0; k < 25; k++ {
		for id := 0; id < p; id++ {
			if id != slow {
				b.Arrive(id)
			}
		}
		b.Arrive(slow)
		for id := 0; id < p; id++ {
			b.Await(id)
		}
	}
	if got := b.DepthOf(slow); got != 1 {
		t.Errorf("slow participant depth %d after 25 episodes (started at %d), want 1", got, startDepth)
	}
	if b.Swaps() == 0 {
		t.Error("no swaps recorded")
	}
	// Everyone must still be placed exactly once: run more episodes to
	// prove the structure is still sound.
	checkBarrier(t, b, p, 10)
}

func TestDynamicRingNeverMigratesAcrossRings(t *testing.T) {
	// One goroutine issues every arrival, the slow id's last, and then
	// collects every release: who arrives last is the test's input, not
	// the scheduler's output.
	runSlow := func(b *DynamicBarrier, slow int) {
		for k := 0; k < 20; k++ {
			for id := 0; id < 8; id++ {
				if id != slow {
					b.Arrive(id)
				}
			}
			b.Arrive(slow)
			for id := 0; id < 8; id++ {
				b.Await(id)
			}
		}
	}

	// A slow ring-0 participant may take the merge root (it belongs to
	// ring 0), reaching depth 1.
	b0 := NewDynamicRing([]int{4, 4}, 2)
	runSlow(b0, 1)
	if got := b0.DepthOf(1); got != 1 {
		t.Errorf("slow ring-0 participant depth %d, want 1", got)
	}
	// A slow ring-1 participant is capped at its ring's subtree root
	// (depth 2): placement never crosses ring boundaries.
	b1 := NewDynamicRing([]int{4, 4}, 2)
	runSlow(b1, 5)
	if got := b1.DepthOf(5); got != 2 {
		t.Errorf("slow ring-1 participant depth %d, want 2", got)
	}
	for _, b := range []*DynamicBarrier{b0, b1} {
		if err := validateDynamicPlacement(b); err != "" {
			t.Error(err)
		}
	}
}

func TestDynamicPlacementChainConsistency(t *testing.T) {
	// Stress: random sleeps shuffle placement constantly; the barrier must
	// keep every episode correct (no early release, no deadlock).
	const p, episodes = 12, 120
	b := NewDynamic(p, 2) // deep tree: maximal swap activity
	checkBarrierWithJitter(t, b, p, episodes)
	if err := validateDynamicPlacement(b); err != "" {
		t.Fatal(err)
	}
}

func checkBarrierWithJitter(t *testing.T, b Barrier, p, episodes int) {
	t.Helper()
	var arrived atomic.Int64
	var wg sync.WaitGroup
	bad := make(chan string, p)
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for k := 0; k < episodes; k++ {
				if (id*7+k*13)%5 == 0 {
					time.Sleep(time.Duration((id*31+k*17)%200) * time.Microsecond)
				}
				arrived.Add(1)
				b.Wait(id)
				if arrived.Load() < int64((k+1)*p) {
					bad <- "crossed barrier early"
					return
				}
			}
		}(id)
	}
	wg.Wait()
	select {
	case msg := <-bad:
		t.Fatal(msg)
	default:
	}
}

// validateDynamicPlacement checks, at a quiescent point, the invariant
// that keeps the barrier live: after resolving pending evictions, every
// counter's occupancy equals its attached-participant fan-in, so the next
// episode's counts will complete exactly. (A vacated counter's Local entry
// may legitimately be stale until its incoming victim consumes the
// redirect, so Local itself is not validated here.)
func validateDynamicPlacement(b *DynamicBarrier) string {
	st := b.state.Load()
	occupants := make(map[int]int)
	for id := 0; id < st.P; id++ {
		occupants[st.home(id)]++
	}
	for i := range st.counters {
		dc := &st.counters[i]
		wantProcs := st.tree.Counters[i].FanIn() - len(st.tree.Counters[i].Children)
		if occupants[i] != wantProcs {
			return "counter occupancy does not match its processor fan-in"
		}
		if dc.count.Load() != 0 {
			return "counter not reset at quiescence"
		}
	}
	return ""
}

func TestAdaptiveBarrierWidensUnderImbalance(t *testing.T) {
	const p = 8
	// One goroutine issues every arrival against a clock it advances
	// itself, 400µs between arrivals, and then collects every release: the
	// spread is the test's input, not the scheduler's output.
	var now int64
	b := NewReconfigurable(p, ReconfigConfig{ReplanEvery: 3}, withClock(func() int64 { return now })) // tc = 20µs
	if b.Degree() != 2 {
		t.Fatalf("initial degree %d, want the model's 2 for simultaneous arrival", b.Degree())
	}
	for k := 0; k < 15; k++ {
		for id := 0; id < p; id++ {
			now += int64(400 * time.Microsecond)
			b.Arrive(id)
		}
		for id := 0; id < p; id++ {
			b.Await(id)
		}
	}
	// Arrival spread ≈ 1ms ≫ 20µs: the model should have widened the tree.
	if b.Degree() <= 4 {
		t.Errorf("degree %d after heavy imbalance, want > 4 (σ estimate %v)", b.Degree(), b.Sigma())
	}
	if b.Epoch() == 0 {
		t.Error("no adaptations recorded")
	}
	if b.Sigma() <= 0 {
		t.Error("σ estimate not positive")
	}
}

func TestAdaptiveBarrierStaysNarrowWhenBalanced(t *testing.T) {
	const p = 8
	// With an (assumed) counter update cost of a full second, scheduling
	// noise is negligible imbalance and the degree must stay at 4.
	b := NewReconfigurable(p, ReconfigConfig{ReplanEvery: 2, Tc: 1.0})
	checkBarrier(t, b, p, 12)
	// With p = 8 the model's full-tree degrees are {2, 8}; under balanced
	// load it must stay narrow (2 or the initial 4), never go flat.
	if b.Degree() > 4 {
		t.Errorf("degree widened to %d under balanced load", b.Degree())
	}
}

func TestOptimalDegreeFacade(t *testing.T) {
	if d := OptimalDegree(64, 0, 0); d != 4 {
		t.Errorf("OptimalDegree(64, 0) = %d, want 4", d)
	}
	if d := OptimalDegree(64, 1.0, 20e-6); d != 64 {
		t.Errorf("OptimalDegree at huge σ = %d, want 64 (flat)", d)
	}
	if d := OptimalDegree(1, 0, 0); d != 2 {
		t.Errorf("OptimalDegree(1) = %d, want clamp to 2", d)
	}
	// Non-power-of-two participant counts round up for estimation but
	// clamp to p.
	if d := OptimalDegree(56, 1.0, 20e-6); d != 56 {
		t.Errorf("OptimalDegree(56, huge σ) = %d, want 56", d)
	}
	prev := 0
	for _, sigma := range []float64{0, 1e-4, 5e-4, 2e-3} {
		d := OptimalDegree(4096, sigma, 20e-6)
		if d < prev {
			t.Errorf("OptimalDegree not monotone in σ: %d after %d", d, prev)
		}
		prev = d
	}
}

func TestEstimateSyncDelayFacade(t *testing.T) {
	d, err := EstimateSyncDelay(64, 4, 0, 20e-6)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 4 * 20e-6; d < want*(1-1e-9) || d > want*(1+1e-9) {
		t.Errorf("EstimateSyncDelay = %v, want %v", d, want)
	}
	if _, err := EstimateSyncDelay(56, 4, 0, 0); err == nil {
		t.Error("non-full tree should error")
	}
}

func TestExpectedLastArrivalFacade(t *testing.T) {
	if v := ExpectedLastArrival(4096, 1); v < 3 || v > 4 {
		t.Errorf("ExpectedLastArrival(4096, 1) = %v, want ≈3.5", v)
	}
	if v := ExpectedLastArrival(64, 0); v != 0 {
		t.Errorf("zero σ should give 0, got %v", v)
	}
}

func TestBarriersDriveSORCorrectly(t *testing.T) {
	// End-to-end: every barrier implementation must produce the exact
	// sequential SOR result when used to synchronize the parallel solver.
	mk := func() *sor.Grid {
		g := sor.NewGrid(20, 11)
		g.Fill(func(x, y int) float64 { return float64((x*13 + y*7) % 5) })
		return g
	}
	ref := mk()
	refBuf := ref.SolveSeq(15)
	const p = 6
	for name, b := range barriersUnderTest(p) {
		g := mk()
		buf := g.SolvePar(p, 15, b)
		if buf != refBuf {
			t.Fatalf("%s: wrong final buffer", name)
		}
		if g.Checksum(buf) != ref.Checksum(refBuf) {
			t.Fatalf("%s: SOR result differs from sequential", name)
		}
	}
}
