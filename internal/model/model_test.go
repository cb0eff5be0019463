package model

import (
	"math"
	"testing"
)

const tc = DefaultTc

func TestFullLevels(t *testing.T) {
	cases := []struct {
		p, d, levels int
		ok           bool
	}{
		{64, 4, 3, true}, {64, 2, 6, true}, {64, 8, 2, true}, {64, 64, 1, true},
		{4096, 16, 3, true}, {4096, 32, 0, false}, {56, 4, 0, false}, {1, 4, 0, true},
	}
	for _, c := range cases {
		l, ok := FullLevels(c.p, c.d)
		if ok != c.ok || (ok && l != c.levels) {
			t.Errorf("FullLevels(%d, %d) = %d, %v; want %d, %v", c.p, c.d, l, ok, c.levels, c.ok)
		}
	}
}

func TestFullTreeDegrees4096(t *testing.T) {
	// The paper notes there is no approximation for degree 32 at p = 4096:
	// 32 is not a full-tree degree, but 2, 4, 8, 16, 64, 4096 are.
	got := FullTreeDegrees(4096)
	want := []int{2, 4, 8, 16, 64, 4096}
	if len(got) != len(want) {
		t.Fatalf("degrees %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("degrees %v, want %v", got, want)
		}
	}
}

func TestSubsetSizesSumToP(t *testing.T) {
	// 1 (last processor) + Σ |S_l| must equal p for any full tree.
	for _, c := range []struct{ p, d int }{{64, 4}, {256, 4}, {4096, 16}, {512, 8}} {
		levels, _ := FullLevels(c.p, c.d)
		total := 1
		for l := 0; l < levels; l++ {
			total += SubsetSize(c.d, l)
		}
		if total != c.p {
			t.Errorf("p=%d d=%d: subsets sum to %d", c.p, c.d, total)
		}
	}
}

func TestPBefore(t *testing.T) {
	// p=64, d=4, L=3: P_after(S_l) = d^(l+1)/p.
	if got := PBefore(4, 0, 3); math.Abs(got-(1-4.0/64)) > 1e-12 {
		t.Errorf("PBefore(l=0) = %v", got)
	}
	if got := PBefore(4, 1, 3); math.Abs(got-(1-16.0/64)) > 1e-12 {
		t.Errorf("PBefore(l=1) = %v", got)
	}
	if got := PBefore(4, 2, 3); got != 0 {
		t.Errorf("PBefore(earliest subset) = %v, want 0", got)
	}
}

func TestEstimateSigmaZeroReducesToEq1(t *testing.T) {
	// At σ = 0 the model must give exactly L·d·t_c.
	for _, c := range []struct{ p, d, levels int }{
		{64, 4, 3}, {64, 2, 6}, {256, 4, 4}, {4096, 16, 3}, {64, 64, 1},
	} {
		got, err := EstimateDelay(Params{P: c.p, Degree: c.d, Sigma: 0})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(c.levels*c.d) * tc
		if math.Abs(got-want) > 1e-15 {
			t.Errorf("p=%d d=%d: delay %v, want %v", c.p, c.d, got, want)
		}
	}
}

func TestEstimateOptimalDegreeAtSigmaZeroIsFour(t *testing.T) {
	// Fig. 4 "est" rows, σ = 0 column.
	for _, p := range []int{64, 256, 4096} {
		if got := EstimateOptimalDegree(p, 0, tc); got.Degree != 4 {
			t.Errorf("p=%d: estimated degree %d at σ=0, want 4", p, got.Degree)
		}
	}
}

func TestEstimatedDegreeGrowsWithSigma(t *testing.T) {
	p := 4096
	prev := 0
	for _, sigma := range []float64{0, 6.2 * tc, 25 * tc, 100 * tc} {
		d := EstimateOptimalDegree(p, sigma, tc).Degree
		if d < prev {
			t.Errorf("σ=%v: estimated degree %d dropped below %d", sigma, d, prev)
		}
		prev = d
	}
	if prev < 16 {
		t.Errorf("estimated degree at σ=100t_c is %d, expected a wide tree", prev)
	}
}

func TestEstimateLargeSigmaApproachesUpdateFloor(t *testing.T) {
	// With σ ≫ t_c the delay approaches L·t_c: contention vanishes.
	b, err := Estimate(Params{P: 4096, Degree: 4, Sigma: 1000 * tc})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Delay-6*tc) > 0.5*tc {
		t.Errorf("large-σ delay %v, want ≈ %v", b.Delay, 6*tc)
	}
	if b.CriticalSubset != -1 {
		t.Errorf("critical subset %d, want last processor (-1)", b.CriticalSubset)
	}
}

func TestEstimateErrors(t *testing.T) {
	if _, err := EstimateDelay(Params{P: 56, Degree: 4}); err == nil {
		t.Error("non-full tree should error")
	}
	if _, err := EstimateDelay(Params{P: 64, Degree: 1}); err == nil {
		t.Error("degree 1 should error")
	}
	if _, err := EstimateDelay(Params{P: 64, Degree: 4, Sigma: -1}); err == nil {
		t.Error("negative σ should error")
	}
	if _, err := EstimateDelay(Params{P: 64, Degree: 4, Tc: -1}); err == nil {
		t.Error("negative t_c should error")
	}
}

func TestBreakdownOrdering(t *testing.T) {
	// Subset arrival times must be increasing in closeness to the last
	// processor: S_{L−1} earliest, S_0 latest (assumption 2 of §3).
	b, err := Estimate(Params{P: 4096, Degree: 4, Sigma: 10 * tc})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l+1 < b.Levels; l++ {
		if b.SubsetArrival[l] <= b.SubsetArrival[l+1] {
			t.Errorf("subset %d arrives at %v, not after subset %d at %v",
				l, b.SubsetArrival[l], l+1, b.SubsetArrival[l+1])
		}
	}
	if b.LastArrival <= b.SubsetArrival[0] {
		t.Error("last processor does not arrive last")
	}
	if b.Delay < float64(b.Levels)*tc*(1-1e-9) {
		t.Errorf("delay %v below the update floor %v", b.Delay, float64(b.Levels)*tc)
	}
}

func TestOptimalDegreeSimultaneous(t *testing.T) {
	if OptimalDegreeSimultaneous() != math.E {
		t.Fatal("continuous optimum should be e")
	}
}

func TestEstimateSweepCoversAllFullDegrees(t *testing.T) {
	sweep := EstimateSweep(256, 5*tc, tc)
	want := FullTreeDegrees(256)
	if len(sweep) != len(want) {
		t.Fatalf("sweep has %d entries, want %d", len(sweep), len(want))
	}
	for i, e := range sweep {
		if e.Degree != want[i] {
			t.Fatalf("sweep degrees mismatch: %v", sweep)
		}
		if e.Delay <= 0 {
			t.Errorf("degree %d: non-positive delay %v", e.Degree, e.Delay)
		}
	}
}

// TestEstimateOptimalDegreeMatchesSweep pins the scalar scan to the
// reference path: for every (p, σ) the allocation-free degree scan must
// select exactly what a full EstimateSweep minimization would.
func TestEstimateOptimalDegreeMatchesSweep(t *testing.T) {
	sweepBest := func(p int, sigma, tc float64) DegreeEstimate {
		sweep := EstimateSweep(p, sigma, tc)
		best := sweep[0]
		for _, e := range sweep[1:] {
			switch {
			case e.Delay < best.Delay*(1-1e-12):
				best = e
			case e.Delay < best.Delay*(1+1e-12) && e.Degree > best.Degree:
				best = e
			}
		}
		return best
	}
	for _, p := range []int{2, 4, 16, 64, 256, 1024, 4096} {
		for _, sigma := range []float64{0, 1e-5, 1e-4, 1e-3, 1e-2} {
			want := sweepBest(p, sigma, DefaultTc)
			got := EstimateOptimalDegree(p, sigma, DefaultTc)
			if got != want {
				t.Errorf("EstimateOptimalDegree(%d, %g) = %+v, want sweep's %+v", p, sigma, got, want)
			}
		}
	}
}

// TestEstimateOptimalDegreeZeroAlloc gates the scalar path: per-episode
// re-planning calls this on the release path, so it must not allocate.
func TestEstimateOptimalDegreeZeroAlloc(t *testing.T) {
	avg := testing.AllocsPerRun(100, func() {
		EstimateOptimalDegree(1024, 3e-4, DefaultTc)
	})
	if avg != 0 {
		t.Fatalf("EstimateOptimalDegree allocated %.2f times/op, want 0", avg)
	}
}

func TestEstimateOptimalDegreeDefaultsTc(t *testing.T) {
	if got, want := EstimateOptimalDegree(64, 1e-4, 0), EstimateOptimalDegree(64, 1e-4, DefaultTc); got != want {
		t.Fatalf("tc=0 gave %+v, want the DefaultTc result %+v", got, want)
	}
}
