package model

import (
	"math"
	"slices"
	"sync"
	"testing"

	"softbarrier/internal/stats"
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

// fullTreeDegrees returns every degree d ≥ 2 with d^L = p for some L ≥ 1,
// in increasing order, as the table holds them. For p = 4096 this is
// {2, 4, 8, 16, 64, 4096} — note the absence of 32, which is why the
// paper's Fig. 2 has no approximation bar for degree 32.
func fullTreeDegrees(p int) []int {
	var ds []int
	for _, r := range Table(p).rows {
		ds = append(ds, r.degree)
	}
	return ds
}

func TestFullTreeDegrees4096(t *testing.T) {
	// The paper notes there is no approximation for degree 32 at p = 4096:
	// 32 is not a full-tree degree, but 2, 4, 8, 16, 64, 4096 are.
	got := fullTreeDegrees(4096)
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
	want := fullTreeDegrees(256)
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

// The oracle: Algorithm 1 as it ran before the degree table, kept here
// verbatim so the table is checked against something it does not read.
// scanOptimal scans every d in 2..p; scanDelay is the allocation-free
// per-degree evaluation the scan ran on; scanEstimate is the full
// breakdown.

func scanOptimal(p int, sigma, tc float64) DegreeEstimate {
	if tc == 0 {
		tc = DefaultTc
	}
	best := DegreeEstimate{Degree: -1}
	for d := 2; d <= p; d++ {
		levels, ok := FullLevels(p, d)
		if !ok {
			continue
		}
		delay := scanDelay(p, d, levels, sigma, tc)
		if best.Degree < 0 || delay < best.Delay*(1+1e-12) {
			best = DegreeEstimate{Degree: d, Levels: levels, Delay: delay}
		}
	}
	return best
}

func scanDelay(p, d, levels int, sigma, tc float64) float64 {
	lastArrival := sigma * stats.ExpectedMaxNormalAsymptotic(p)
	release := lastArrival + float64(levels)*tc
	for l := 0; l < levels; l++ {
		pb := PBefore(d, l, levels)
		if l == levels-1 {
			if levels >= 2 {
				pb = PBefore(d, levels-2, levels) / 2
			} else {
				pb = (1 - 1/float64(p)) / 2
			}
		}
		arr := 0.0
		if sigma != 0 {
			arr = sigma * stats.NormalQuantile(pb)
		}
		rel := arr + Contention(d, l+1, tc) + float64(levels-1-l)*tc
		if rel > release {
			release = rel
		}
	}
	return release - lastArrival
}

func scanEstimate(p, d int, sigma, tc float64) Breakdown {
	if tc == 0 {
		tc = DefaultTc
	}
	levels, _ := FullLevels(p, d)
	b := Breakdown{
		Levels:         levels,
		SubsetArrival:  make([]float64, levels),
		SubsetRelease:  make([]float64, levels),
		CriticalSubset: -1,
	}
	for l := 0; l < levels; l++ {
		pb := PBefore(d, l, levels)
		if l == levels-1 {
			if levels >= 2 {
				pb = PBefore(d, levels-2, levels) / 2
			} else {
				pb = (1 - 1/float64(p)) / 2
			}
		}
		if sigma == 0 {
			b.SubsetArrival[l] = 0
		} else {
			b.SubsetArrival[l] = sigma * stats.NormalQuantile(pb)
		}
		b.SubsetRelease[l] = b.SubsetArrival[l] +
			Contention(d, l+1, tc) +
			float64(levels-1-l)*tc
	}
	b.LastArrival = sigma * stats.ExpectedMaxNormalAsymptotic(p)
	b.LastRelease = b.LastArrival + float64(levels)*tc
	release := b.LastRelease
	for l, r := range b.SubsetRelease {
		if r > release {
			release = r
			b.CriticalSubset = l
		}
	}
	b.Delay = release - b.LastArrival
	return b
}

// sameBreakdown reports whether a and b agree field for field, floats bit
// for bit.
func sameBreakdown(a, b Breakdown) bool {
	same := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.Levels == b.Levels && a.CriticalSubset == b.CriticalSubset &&
		same(a.SubsetArrival, b.SubsetArrival) && same(a.SubsetRelease, b.SubsetRelease) &&
		same([]float64{a.LastArrival, a.LastRelease, a.Delay}, []float64{b.LastArrival, b.LastRelease, b.Delay})
}

// TestDegreeTableMatchesScan pins the degree table to the scan it
// replaced: for every p in 2..300 and every power of two up to 2^16, at
// σ = 0 and along a log grid from 10⁻¹⁰ to 10 s, and at four t_c, the
// table's optimum, sweep and breakdowns equal the scan's bit for bit. The
// grid reaches the flat tree at its top for every (p, t_c), so it crosses
// every degree switch on the way.
func TestDegreeTableMatchesScan(t *testing.T) {
	ps := make([]int, 0, 320)
	for p := 2; p <= 300; p++ {
		ps = append(ps, p)
	}
	for p := 512; p <= 1<<16; p *= 2 {
		ps = append(ps, p)
	}
	sigmas := []float64{0}
	for e := -10.0; e <= 1; e += 1.0 / 8 {
		sigmas = append(sigmas, math.Pow(10, e))
	}
	cases := 0
	for _, p := range ps {
		for _, tc := range []float64{0, 20e-6, 1e-9, 0.33e-6} {
			for _, sigma := range sigmas {
				want := scanOptimal(p, sigma, tc)
				got := EstimateOptimalDegree(p, sigma, tc)
				if got.Degree != want.Degree || got.Levels != want.Levels ||
					math.Float64bits(got.Delay) != math.Float64bits(want.Delay) {
					t.Fatalf("p=%d σ=%g tc=%g: table %+v, scan %+v", p, sigma, tc, got, want)
				}
				sweep := EstimateSweep(p, sigma, tc)
				for _, e := range sweep {
					b, err := Estimate(Params{P: p, Degree: e.Degree, Sigma: sigma, Tc: tc})
					if err != nil {
						t.Fatal(err)
					}
					wantB := scanEstimate(p, e.Degree, sigma, tc)
					if !sameBreakdown(b, wantB) {
						t.Fatalf("p=%d d=%d σ=%g tc=%g: breakdown %+v, scan %+v", p, e.Degree, sigma, tc, b, wantB)
					}
					if e.Levels != wantB.Levels || math.Float64bits(e.Delay) != math.Float64bits(wantB.Delay) {
						t.Fatalf("p=%d d=%d σ=%g tc=%g: sweep %+v, scan %+v", p, e.Degree, sigma, tc, e, wantB)
					}
				}
				cases++
			}
			if top := EstimateOptimalDegree(p, sigmas[len(sigmas)-1], tc).Degree; top != p {
				t.Fatalf("p=%d tc=%g: degree %d at the grid's top, want the flat tree", p, tc, top)
			}
		}
	}
	t.Logf("%d (p, σ, t_c) cases", cases)
}

// TestFullTreeDegreesMatchScan checks the table's degree enumeration
// against the definition: every d in 2..p with d^L = p.
func TestFullTreeDegreesMatchScan(t *testing.T) {
	ps := []int{0, 1, 1 << 20, 3 * 3 * 3 * 3 * 3 * 3, 6 * 6 * 6 * 6, 10000}
	for p := 2; p <= 1100; p++ {
		ps = append(ps, p)
	}
	for _, p := range ps {
		var want []int
		for d := 2; d <= p; d++ {
			if _, ok := FullLevels(p, d); ok {
				want = append(want, d)
			}
		}
		if got := fullTreeDegrees(p); !slices.Equal(got, want) {
			t.Fatalf("fullTreeDegrees(%d) = %v, want %v", p, got, want)
		}
	}
}

// TestTableConcurrentBuild races builders on one power of two's empty
// slot: every caller must get the one table that was published.
func TestTableConcurrentBuild(t *testing.T) {
	const p = 1 << 40
	got := make([]*DegreeTable, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Table(p)
		}()
	}
	wg.Wait()
	for _, tb := range got {
		if tb != got[0] || tb != Table(p) {
			t.Fatal("racing builders published different tables")
		}
	}
	if d := fullTreeDegrees(p); !slices.Equal(d, []int{2, 4, 16, 32, 256, 1024, 1 << 20, p}) {
		t.Fatalf("degrees of 2^40 = %v", d)
	}
}

// TestEstimateOptimalDegreeZeroAlloc gates the cached table: per-episode
// re-planning calls this on the release path for a power of two, so once
// that p's table exists it must not allocate.
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
