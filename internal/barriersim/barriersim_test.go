package barriersim

import (
	"math"
	"testing"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

const tc = model.DefaultTc

// almostEq compares within a small absolute tolerance scaled to t_c.
func almostEq(a, b float64) bool { return math.Abs(a-b) < tc*1e-9 }

func TestSimultaneousArrivalClassicFullTree(t *testing.T) {
	// §3: with simultaneous arrivals a full classic tree of degree d and L
	// levels has synchronization delay exactly L·d·t_c.
	for _, c := range []struct{ p, d, levels int }{
		{64, 4, 3}, {64, 8, 2}, {256, 4, 4}, {4096, 16, 3},
	} {
		tree := topology.NewClassic(c.p, c.d)
		s := New(tree, Config{})
		er := s.Episode(make([]float64, c.p))
		want := float64(c.levels*c.d) * tc
		if !almostEq(er.SyncDelay, want) {
			t.Errorf("p=%d d=%d: delay %v, want %v", c.p, c.d, er.SyncDelay, want)
		}
		if wantU := float64(c.levels) * tc; !almostEq(er.UpdateDelay, wantU) {
			t.Errorf("p=%d d=%d: update %v, want %v", c.p, c.d, er.UpdateDelay, wantU)
		}
		if !almostEq(er.ContentionDelay, want-float64(c.levels)*tc) {
			t.Errorf("p=%d d=%d: contention %v", c.p, c.d, er.ContentionDelay)
		}
	}
}

func TestFlatBarrierSerializesEveryone(t *testing.T) {
	// A single counter with p simultaneous arrivals takes p·t_c.
	p := 64
	tree := topology.NewClassic(p, p)
	s := New(tree, Config{})
	er := s.Episode(make([]float64, p))
	if !almostEq(er.SyncDelay, float64(p)*tc) {
		t.Errorf("flat delay %v, want %v", er.SyncDelay, float64(p)*tc)
	}
}

func TestWideDistributionRemovesContention(t *testing.T) {
	// With arrivals spread far wider than t_c, the last processor walks an
	// uncontended path: delay ≈ depth·t_c even for a flat tree.
	p := 64
	tree := topology.NewClassic(p, p)
	s := New(tree, Config{})
	arr := make([]float64, p)
	for i := range arr {
		arr[i] = float64(i) * 100 * tc
	}
	er := s.Episode(arr)
	if !almostEq(er.SyncDelay, tc) {
		t.Errorf("uncontended flat delay %v, want %v", er.SyncDelay, tc)
	}
	if er.ContentionDelay > tc*1e-9 {
		t.Errorf("contention %v, want 0", er.ContentionDelay)
	}
}

func TestSingleLateProcessorSeesOnlyUpdateDelay(t *testing.T) {
	// One processor far later than the rest: by the time it arrives every
	// other subtree has drained, so delay = L·t_c exactly (Eq. 7 path).
	tree := topology.NewClassic(256, 4) // 4 levels
	s := New(tree, Config{})
	arr := make([]float64, 256)
	arr[17] = 1000 * tc
	er := s.Episode(arr)
	if !almostEq(er.SyncDelay, 4*tc) {
		t.Errorf("late-processor delay %v, want %v", er.SyncDelay, 4*tc)
	}
}

func TestReleaseAfterLastArrivalAlways(t *testing.T) {
	tree := topology.NewClassic(64, 4)
	s := New(tree, Config{})
	r := stats.NewRNG(1)
	for k := 0; k < 50; k++ {
		arr := loadmodel.SampleArrivals(64, stats.Normal{Sigma: 5 * tc}, r)
		er := s.Episode(arr)
		if er.SyncDelay < 3*tc-tc*1e-9 {
			t.Fatalf("delay %v below update floor", er.SyncDelay)
		}
		if er.Release < er.LastArrival {
			t.Fatalf("release %v before last arrival %v", er.Release, er.LastArrival)
		}
	}
}

func TestNegativeArrivalTimesHandled(t *testing.T) {
	// Arrivals drawn from N(0, σ) are frequently negative; the simulator
	// must shift them internally and report results in the caller's base.
	tree := topology.NewClassic(64, 4)
	s := New(tree, Config{})
	arr := make([]float64, 64)
	for i := range arr {
		arr[i] = -1 + float64(i)*tc/10
	}
	er := s.Episode(arr)
	if er.LastArrival != arr[63] {
		t.Errorf("LastArrival %v, want %v", er.LastArrival, arr[63])
	}
	if er.Release <= er.LastArrival {
		t.Error("release not after last arrival")
	}
}

func TestEpisodeCommsEqualBase(t *testing.T) {
	tree := topology.NewMCS(64, 4)
	s := New(tree, Config{})
	er := s.Episode(make([]float64, 64))
	if er.Comms != s.BaseComms() {
		t.Errorf("static comms %d, want base %d", er.Comms, s.BaseComms())
	}
	// Base = one update per processor + one per non-root counter.
	want := 64 + tree.NumCounters() - 1
	if s.BaseComms() != want {
		t.Errorf("base comms %d, want %d", s.BaseComms(), want)
	}
}

func TestEpisodePanicsOnWrongArity(t *testing.T) {
	s := New(topology.NewClassic(8, 4), Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong arrival count")
		}
	}()
	s.Episode(make([]float64, 7))
}

func TestDeterminism(t *testing.T) {
	run := func() RunResult {
		return RunIID(topology.NewClassic(256, 8), Config{}, stats.Normal{Sigma: 10 * tc}, 20, 42)
	}
	a, b := run(), run()
	if a.MeanSync != b.MeanSync || a.MeanLastDepth != b.MeanLastDepth {
		t.Fatalf("runs differ: %v vs %v", a.MeanSync, b.MeanSync)
	}
}

func TestCallersTreeNotMutated(t *testing.T) {
	tree := topology.NewMCS(64, 4)
	before := tree.FirstCounter(5)
	s := New(tree, Config{Dynamic: true})
	it := NewIterator(
		loadmodel.StaticSkew{
			Base:    loadmodel.IID{N: 64, Dist: stats.Normal{Sigma: tc}},
			Offsets: loadmodel.LinearOffsets(64, 100*tc),
		}, 1e9, 7)
	s.Run(it, 5, 10)
	if tree.FirstCounter(5) != before {
		t.Fatal("simulator mutated the caller's tree")
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatalf("simulator tree invalid after swaps: %v", err)
	}
}

func TestDynamicPlacementMovesSystemicallySlowProcToRoot(t *testing.T) {
	// A single systemically slow processor must migrate into the root's
	// local slot and then release the barrier with depth 1.
	p := 64
	tree := topology.NewMCS(p, 4)
	off := make([]float64, p)
	off[13] = 500 * tc // processor 13 is always very late
	s := New(tree, Config{Dynamic: true})
	it := NewIterator(
		loadmodel.StaticSkew{Base: loadmodel.IID{N: p, Dist: stats.Normal{Sigma: tc / 10}}, Offsets: off},
		1e9, 3)
	rr := s.Run(it, 10, 20)
	if got := s.Tree().Counters[s.Tree().Root].Local; got != 13 {
		t.Fatalf("root local = %d, want 13", got)
	}
	if rr.MeanLastDepth > 1.01 {
		t.Errorf("mean last depth %v, want ≈1", rr.MeanLastDepth)
	}
}

func TestDynamicPlacementReducesDelayUnderSystemicImbalance(t *testing.T) {
	p := 256
	// Reverse the offsets so the systemically slow processors are the
	// low-numbered ones, which start on leaf counters.
	off := loadmodel.LinearOffsets(p, 200*tc)
	for i, j := 0, len(off)-1; i < j; i, j = i+1, j-1 {
		off[i], off[j] = off[j], off[i]
	}
	mkIter := func(seed uint64) *Iterator {
		return NewIterator(
			loadmodel.StaticSkew{
				Base:    loadmodel.IID{N: p, Dist: stats.Normal{Sigma: tc}},
				Offsets: off,
			}, 1e9, seed)
	}
	static := New(topology.NewMCS(p, 4), Config{}).Run(mkIter(5), 10, 50)
	dynamic := New(topology.NewMCS(p, 4), Config{Dynamic: true}).Run(mkIter(5), 10, 50)
	if dynamic.MeanSync >= static.MeanSync {
		t.Errorf("dynamic %v not faster than static %v", dynamic.MeanSync, static.MeanSync)
	}
	if dynamic.MeanLastDepth >= static.MeanLastDepth {
		t.Errorf("dynamic depth %v not below static %v", dynamic.MeanLastDepth, static.MeanLastDepth)
	}
}

func TestDynamicPlacementUselessAtZeroSlack(t *testing.T) {
	// Fig. 8, slack-0 column: with slack 0 the arrival order is
	// unpredictable, so dynamic placement gives no speedup (ratio ≈ 1).
	p := 256
	mkIter := func() *Iterator {
		return NewIterator(loadmodel.IID{N: p, Dist: stats.Normal{Mu: 100 * tc, Sigma: 12.5 * tc}}, 0, 9)
	}
	static := New(topology.NewMCS(p, 4), Config{}).Run(mkIter(), 10, 60)
	dynamic := New(topology.NewMCS(p, 4), Config{Dynamic: true}).Run(mkIter(), 10, 60)
	ratio := static.MeanSync / dynamic.MeanSync
	if ratio > 1.15 || ratio < 0.8 {
		t.Errorf("slack-0 speedup %v, want ≈1", ratio)
	}
}

func TestDynamicCommOverheadBounded(t *testing.T) {
	// §5.1: the overhead is at most one extra communication per swap and
	// there is at most one swap per counter, so overhead ≤ 1 + 1/(d+1).
	p := 256
	d := 4
	it := NewIterator(loadmodel.IID{N: p, Dist: stats.Normal{Sigma: 12.5 * tc}}, 0, 11)
	rr := New(topology.NewMCS(p, d), Config{Dynamic: true}).Run(it, 5, 50)
	if rr.CommOverhead > 1+1.0/float64(d+1)+1e-9 {
		t.Errorf("comm overhead %v exceeds bound %v", rr.CommOverhead, 1+1.0/float64(d+1))
	}
	if rr.CommOverhead < 1 {
		t.Errorf("comm overhead %v below 1", rr.CommOverhead)
	}
}

func TestStaticRunHasNoSwapsAndUnitOverhead(t *testing.T) {
	it := NewIterator(loadmodel.IID{N: 64, Dist: stats.Normal{Sigma: 5 * tc}}, 0, 13)
	rr := New(topology.NewMCS(64, 4), Config{}).Run(it, 0, 20)
	if rr.MeanSwaps != 0 || rr.CommOverhead != 1 {
		t.Errorf("static run: swaps %v overhead %v", rr.MeanSwaps, rr.CommOverhead)
	}
}

func TestDynamicOnClassicTreeIsNoOp(t *testing.T) {
	// Classic trees have no local slots, so dynamic placement cannot swap.
	it := NewIterator(loadmodel.IID{N: 64, Dist: stats.Normal{Sigma: 5 * tc}}, 1e9, 15)
	rr := New(topology.NewClassic(64, 4), Config{Dynamic: true}).Run(it, 0, 20)
	if rr.MeanSwaps != 0 {
		t.Errorf("classic tree produced %v swaps", rr.MeanSwaps)
	}
}

func TestRingTreeSwapsStayInRing(t *testing.T) {
	rings := []int{28, 28}
	tree := topology.NewRing(rings, 4)
	off := make([]float64, 56)
	off[3] = 500 * tc // slow processor in ring 0
	s := New(tree, Config{Dynamic: true})
	it := NewIterator(
		loadmodel.StaticSkew{Base: loadmodel.IID{N: 56, Dist: stats.Normal{Sigma: tc / 10}}, Offsets: off},
		1e9, 17)
	s.Run(it, 10, 20)
	if got := s.Tree().RingOf(3); got != 0 {
		t.Fatalf("processor 3 moved to ring %d", got)
	}
	// The merge root belongs to ring 0, so a slow ring-0 processor can
	// reach depth 1.
	if d := s.Tree().Depth(s.Tree().FirstCounter(3)); d != 1 {
		t.Errorf("slow ring-0 processor depth %d, want 1", d)
	}
	if err := s.Tree().Validate(); err != nil {
		t.Fatal(err)
	}

	// A slow ring-1 processor is capped at its ring's subtree root
	// (depth 2): placement never crosses ring boundaries.
	off2 := make([]float64, 56)
	off2[40] = 500 * tc
	s2 := New(topology.NewRing(rings, 4), Config{Dynamic: true})
	it2 := NewIterator(
		loadmodel.StaticSkew{Base: loadmodel.IID{N: 56, Dist: stats.Normal{Sigma: tc / 10}}, Offsets: off2},
		1e9, 18)
	s2.Run(it2, 10, 20)
	if got := s2.Tree().RingOf(40); got != 1 {
		t.Fatalf("processor 40 moved to ring %d", got)
	}
	if d := s2.Tree().Depth(s2.Tree().FirstCounter(40)); d != 2 {
		t.Errorf("slow ring-1 processor depth %d, want 2", d)
	}
}

func TestVictimPaysPenaltyNextEpisode(t *testing.T) {
	p := 8
	tree := topology.NewMCS(p, 4)
	s := New(tree, Config{Dynamic: true})
	// Episode 1: proc 0 (a leaf processor) very late -> becomes a victor,
	// swaps toward the root.
	arr := make([]float64, p)
	arr[0] = 100 * tc
	er := s.Episode(arr)
	if er.Swaps == 0 {
		t.Fatal("expected at least one swap")
	}
	// Episode 2: a victim consumes its penalty -> extra comms counted.
	er2 := s.Episode(make([]float64, p))
	if er2.Comms <= s.BaseComms() {
		t.Errorf("episode after swap has comms %d, want > base %d", er2.Comms, s.BaseComms())
	}
}

func TestRunResultAggregates(t *testing.T) {
	it := NewIterator(loadmodel.IID{N: 64, Dist: stats.Normal{Mu: 50 * tc, Sigma: 2 * tc}}, 0, 19)
	rr := New(topology.NewClassic(64, 4), Config{}).Run(it, 2, 25)
	if rr.Episodes != 25 || len(rr.SyncDelays) != 25 {
		t.Fatalf("episodes %d, delays %d", rr.Episodes, len(rr.SyncDelays))
	}
	if m := stats.Mean(rr.SyncDelays); !almostEq(m, rr.MeanSync) {
		t.Errorf("MeanSync %v vs recomputed %v", rr.MeanSync, m)
	}
	if rr.MeanSync <= 0 || rr.MeanLastDepth < 1 {
		t.Errorf("implausible aggregates: %+v", rr)
	}
	if math.Abs(rr.MeanSync-rr.MeanUpdate-rr.MeanContention) > tc*1e-6 {
		t.Error("delay components do not sum")
	}
}

func TestRunPanicsOnZeroEpisodes(t *testing.T) {
	it := NewIterator(loadmodel.IID{N: 4, Dist: stats.Degenerate{V: 1}}, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(topology.NewClassic(4, 2), Config{}).Run(it, 0, 0)
}

func TestConfigDefaults(t *testing.T) {
	s := New(topology.NewClassic(4, 2), Config{})
	if s.Tc() != model.DefaultTc {
		t.Errorf("default tc %v", s.Tc())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative tc did not panic")
		}
	}()
	New(topology.NewClassic(4, 2), Config{Tc: -1})
}

func TestLockDegradationInflatesContention(t *testing.T) {
	// With simultaneous arrivals, a degrading lock must strictly inflate
	// the delay of any contended tree, and leave an uncontended (spread)
	// episode untouched.
	p := 64
	tree := topology.NewClassic(p, 8)
	ideal := New(tree, Config{}).Episode(make([]float64, p))
	degraded := New(tree, Config{LockDegradation: 1}).Episode(make([]float64, p))
	if degraded.SyncDelay <= ideal.SyncDelay {
		t.Errorf("degraded delay %v not above ideal %v", degraded.SyncDelay, ideal.SyncDelay)
	}

	spread := make([]float64, p)
	for i := range spread {
		spread[i] = float64(i) * 100 * tc
	}
	a := New(tree, Config{}).Episode(spread)
	b := New(tree, Config{LockDegradation: 1}).Episode(spread)
	if a.SyncDelay != b.SyncDelay {
		t.Errorf("uncontended episode changed under degradation: %v vs %v", a.SyncDelay, b.SyncDelay)
	}
}

func TestLockDegradationShiftsOptimumNarrower(t *testing.T) {
	// At σ=0 the ideal-lock optimum is degree 4 (tied with 2); under heavy
	// degradation fewer waiters per counter win: degree 2.
	best, _, _ := OptimalDegree(64, topology.NewClassic, Config{LockDegradation: 1}, stats.Degenerate{}, 1, 1)
	if best.Degree != 2 {
		t.Errorf("degraded-lock optimum %d at σ=0, want 2", best.Degree)
	}
}

func TestNegativeLockDegradationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(topology.NewClassic(4, 2), Config{LockDegradation: -1})
}

// Tc returns the configured counter update time.
func (s *Sim) Tc() float64 { return s.tc }

// BaseComms returns the fixed number of counter updates per episode.
func (s *Sim) BaseComms() int { return s.baseComms }
