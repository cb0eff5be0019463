package barriersim

import (
	"math"
	"testing"
	"testing/quick"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// Metamorphic properties of the episode simulation: relations that must
// hold between related inputs regardless of tree shape.

// genArrivals produces a deterministic arrival vector from a seed.
func genArrivals(p int, seed uint64, sigma float64) []float64 {
	r := stats.NewRNG(seed)
	return loadmodel.SampleArrivals(p, stats.Normal{Sigma: sigma}, r)
}

// Property: shifting every arrival by a constant shifts the release by the
// same constant and leaves the synchronization delay unchanged.
func TestEpisodeShiftInvariance(t *testing.T) {
	f := func(seed uint32, shiftRaw int16) bool {
		p := 64
		tree := topology.NewClassic(p, 4)
		arr := genArrivals(p, uint64(seed), 5*tc)
		shift := float64(shiftRaw) * tc
		shifted := make([]float64, p)
		for i, a := range arr {
			shifted[i] = a + shift
		}
		a := New(tree, Config{}).Episode(arr)
		b := New(tree, Config{}).Episode(shifted)
		return math.Abs(a.SyncDelay-b.SyncDelay) < tc*1e-6 &&
			math.Abs((b.Release-a.Release)-shift) < tc*1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: delaying one processor's arrival never makes the release
// earlier (the simulation is monotone in its inputs).
func TestEpisodeMonotoneInArrivals(t *testing.T) {
	f := func(seed uint32, whoRaw uint8, extraRaw uint8) bool {
		p := 64
		tree := topology.NewMCS(p, 4)
		arr := genArrivals(p, uint64(seed), 5*tc)
		later := append([]float64(nil), arr...)
		later[int(whoRaw)%p] += float64(extraRaw) * tc / 4
		a := New(tree, Config{}).Episode(arr)
		b := New(tree, Config{}).Episode(later)
		return b.Release >= a.Release-tc*1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the synchronization delay is bounded below by the last
// arriver's uncontended path and above by the fully serialized machine:
// depth·t_c ≤ delay ≤ (p + counters)·t_c.
func TestEpisodeDelayBounds(t *testing.T) {
	f := func(seed uint32, dRaw uint8, sigmaRaw uint8) bool {
		p := 128
		d := 2 + int(dRaw)%16
		sigma := float64(sigmaRaw) * tc / 4
		tree := topology.NewClassic(p, d)
		arr := genArrivals(p, uint64(seed), sigma)
		er := New(tree, Config{}).Episode(arr)
		lo := er.UpdateDelay
		hi := float64(p+tree.NumCounters()) * tc
		return er.SyncDelay >= lo-tc*1e-9 && er.SyncDelay <= hi+tc*1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any tree kind and arrivals, the releaser is a valid
// processor and its reported depth matches the topology.
func TestEpisodeReleaserConsistency(t *testing.T) {
	f := func(seed uint32, mcs bool) bool {
		p := 96
		var tree *topology.Tree
		if mcs {
			tree = topology.NewMCS(p, 4)
		} else {
			tree = topology.NewClassic(p, 4)
		}
		s := New(tree, Config{})
		arr := genArrivals(p, uint64(seed), 10*tc)
		er := s.Episode(arr)
		if er.Releaser < 0 || er.Releaser >= p {
			return false
		}
		return er.LastProcDepth == s.Tree().Depth(s.Tree().FirstCounter(er.Releaser))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: under dynamic placement, any sequence of episodes keeps the
// simulator's tree structurally valid.
func TestDynamicEpisodesPreserveTreeValidity(t *testing.T) {
	f := func(seed uint32, ringTree bool) bool {
		var tree *topology.Tree
		if ringTree {
			tree = topology.NewRing([]int{20, 20}, 3)
		} else {
			tree = topology.NewMCS(40, 3)
		}
		s := New(tree, Config{Dynamic: true})
		r := stats.NewRNG(uint64(seed))
		for k := 0; k < 15; k++ {
			s.Episode(loadmodel.SampleArrivals(40, stats.Normal{Sigma: 20 * tc}, r))
			if s.Tree().Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: static and dynamic placement agree exactly when arrivals make
// no processor ever climb above its own counter's completion (i.e. the
// first episode, before any swap, on identical arrivals).
func TestFirstEpisodeStaticDynamicAgree(t *testing.T) {
	f := func(seed uint32) bool {
		p := 64
		tree := topology.NewMCS(p, 4)
		arr := genArrivals(p, uint64(seed), 8*tc)
		a := New(tree, Config{}).Episode(arr)
		b := New(tree, Config{Dynamic: true}).Episode(arr)
		// The swap happens after the release is determined, so episode 1
		// metrics are identical.
		return a.SyncDelay == b.SyncDelay && a.Release == b.Release && a.Releaser == b.Releaser
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
