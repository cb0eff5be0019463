// Package model implements the paper's analytic approximation of the
// synchronization delay of a software combining tree under load imbalance
// (§3, Eq. 1–8, Algorithm 1) and the optimal-degree estimation built on it
// (§4).
//
// The model assumes a full tree (p = d^L) of degree d whose processors'
// arrival times are normally distributed with standard deviation σ. The
// processors are partitioned into subsets S_0 … S_{L−1} along the last
// processor's path to the root: S_l holds the d−1 depth-l subtrees hanging
// off the path counter at level l, so |S_l| = (d−1)·d^l. All processors of
// a subset are assumed to arrive simultaneously, and subsets farther from
// the last processor arrive earlier.
//
// Each subset's arrival time comes from the inverse normal distribution at
// the expected fraction of processors arriving before it (Eq. 2–4); the
// last processor's arrival uses the order-statistics asymptote (Eq. 5).
// A subset's release time adds the contention-tree delay of Eq. 1 and the
// propagation to the root (Eq. 6); the synchronization delay is the max
// over release times minus the last arrival (Eq. 8).
//
// One reading choice: the paper's Eq. 1 delay c(L) = L·d·t_c is applied
// here to the (l+1)-level subtree formed by subset S_l together with the
// path counter collecting it, so the σ = 0 case reduces exactly to the
// known simultaneous-arrival delay L·d·t_c and the estimated optimal
// degree at σ = 0 is 4, as the paper's Fig. 4 reports.
package model

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"softbarrier/internal/stats"
)

// Params specifies one analytic-model evaluation.
type Params struct {
	// P is the number of processors; must be d^L for some L ≥ 1.
	P int
	// Degree is the combining-tree degree d ≥ 2.
	Degree int
	// Sigma is the standard deviation of processor arrival times.
	Sigma float64
	// Tc is the counter update time; 0 selects 20µs (the paper's value).
	Tc float64
}

// DefaultTc is the counter update time measured on the KSR1 and used for
// every simulation in the paper: 20µs, expressed in seconds. The simulator
// and the planner both default to it.
const DefaultTc = 20e-6

// FullLevels returns L such that d^L == p, or false when p is not a power
// of d (the model requires full trees).
func FullLevels(p, d int) (int, bool) {
	if p < 1 || d < 2 {
		return 0, false
	}
	l, v := 0, 1
	for v < p {
		v *= d
		l++
	}
	return l, v == p
}

// SubsetSize returns |S_l| = (d−1)·d^l (Eq. 2 context).
func SubsetSize(d, l int) int {
	return (d - 1) * pow(d, l)
}

// PBefore returns the expected fraction of processors arriving before the
// processors of subset S_l in an L-level tree of degree d:
// 1 − d^(l+1−L) (Eq. 2). For the earliest subset (l = L−1) this is 0, and
// Algorithm 1 substitutes PBefore(S_{L−2})/2; that substitution is the
// caller's (EstimateDelay's) job.
func PBefore(d, l, levels int) float64 {
	return 1 - math.Pow(float64(d), float64(l+1-levels))
}

// Contention returns Eq. 1's synchronization delay of a full tree with the
// given number of levels under simultaneous arrival: levels·d·t_c.
func Contention(d, levels int, tc float64) float64 {
	return float64(levels) * float64(d) * tc
}

// Breakdown exposes the intermediate quantities of Algorithm 1 for
// inspection and testing.
type Breakdown struct {
	Levels         int
	SubsetArrival  []float64 // T_arr(S_l), l = 0..L−1
	SubsetRelease  []float64 // T_rel(S_l)
	LastArrival    float64   // T_arr(last), Eq. 5
	LastRelease    float64   // T_rel(last), Eq. 7
	Delay          float64   // T_sync, Eq. 8
	CriticalSubset int       // l of the release-time maximum, −1 if the last processor dominates
}

// EstimateDelay runs Algorithm 1 and returns the approximate
// synchronization delay for the given parameters. It fails if p is not a
// full power of the degree.
func EstimateDelay(pr Params) (float64, error) {
	b, err := Estimate(pr)
	if err != nil {
		return 0, err
	}
	return b.Delay, nil
}

// Estimate runs Algorithm 1 and returns the full breakdown.
func Estimate(pr Params) (Breakdown, error) {
	if pr.Tc == 0 {
		pr.Tc = DefaultTc
	}
	if pr.Tc < 0 || pr.Sigma < 0 {
		return Breakdown{}, fmt.Errorf("model: negative σ or t_c")
	}
	if pr.Degree < 2 {
		return Breakdown{}, fmt.Errorf("model: degree %d < 2", pr.Degree)
	}
	levels, ok := FullLevels(pr.P, pr.Degree)
	if !ok {
		return Breakdown{}, fmt.Errorf("model: %d processors is not a full tree of degree %d", pr.P, pr.Degree)
	}
	t := Table(pr.P)
	r := degreeRow{degree: pr.Degree} // p = 1: a tree with no levels and no subsets
	for _, tr := range t.rows {
		if tr.degree == pr.Degree {
			r = tr
		}
	}
	b := Breakdown{
		Levels:        levels,
		SubsetArrival: make([]float64, levels),
		SubsetRelease: make([]float64, levels),
	}
	b.Delay = r.eval(t.emax, pr.Sigma, pr.Tc, &b)
	return b, nil
}

// DegreeEstimate is one entry of an analytic degree sweep.
type DegreeEstimate struct {
	Degree int
	Levels int
	Delay  float64
}

// EstimateSweep evaluates the model for every full-tree degree of p and
// returns the estimates in increasing degree order.
func EstimateSweep(p int, sigma, tc float64) []DegreeEstimate {
	return Table(p).Sweep(sigma, tc)
}

// EstimateByDegree returns the model's estimated delay keyed by degree:
// the join used wherever model estimates are attached to simulated degree
// rows (barriersim sweep's table, the FIG2 experiment). Degrees that are not
// full-tree degrees of p have no estimate and are simply absent.
func EstimateByDegree(p int, sigma, tc float64) map[int]float64 {
	sweep := EstimateSweep(p, sigma, tc)
	byDegree := make(map[int]float64, len(sweep))
	for _, e := range sweep {
		byDegree[e.Degree] = e.Delay
	}
	return byDegree
}

// EstimateOptimalDegree returns the analytic model's delay-minimizing
// degree for p processors at the given imbalance, with ties going to the
// larger degree (wider trees need fewer counters). This is the quantity a
// compiler would use to configure a barrier (§8). It reads p's DegreeTable
// (Table): for a power of two, the only p a barrier's re-plan asks for,
// the table is built on the first call and every later call allocates
// nothing and evaluates no Φ⁻¹ or E[max], so per-episode re-planning stays
// off the heap; any other p builds its table on every call. It panics for
// p < 2 (no full-tree degree exists).
func EstimateOptimalDegree(p int, sigma, tc float64) DegreeEstimate {
	return Table(p).Optimal(sigma, tc)
}

// OptimalDegree is softbarrier.OptimalDegree, the degree a barrier of
// any p runs at: EstimateOptimalDegree at p rounded up to a power of two,
// clamped to [2, p]. After p's first call it allocates nothing.
func OptimalDegree(p int, sigma, tc float64) int {
	if p < 2 {
		return 2
	}
	pUp := 2
	for pUp < p {
		pUp *= 2
	}
	return min(max(EstimateOptimalDegree(pUp, sigma, tc).Degree, 2), p)
}

// DegreeTable holds the terms of Algorithm 1 that depend on p alone: the
// full-tree degrees of p, each one's level count and Φ⁻¹ of each subset's
// fraction (Eq. 2–4), and E[max of p standard normals] (Eq. 5). What is
// left for a (σ, t_c) is a handful of multiply-adds per level. A table is
// immutable, so one may be shared by any number of goroutines.
type DegreeTable struct {
	p    int
	emax float64     // E[max of p standard normals], Eq. 5
	rows []degreeRow // one per full-tree degree, in increasing order
}

// degreeRow is one full-tree degree of a table.
type degreeRow struct {
	degree, levels int
	q              []float64 // Φ⁻¹ of S_l's fraction arriving before it, l = 0..levels−1
}

// tables caches one DegreeTable per power of two, slot k holding p = 2^k:
// the only cohort sizes OptimalDegree asks for. A table is published once
// and never changed; of two builders racing on a slot, the one whose
// CompareAndSwap lands wins and the other's table is dropped.
var tables [64]atomic.Pointer[DegreeTable]

// Table returns p's DegreeTable. A power of two's is built once and cached
// for the life of the process; any other p's is built on every call (only
// the simulator and the command line ask for those).
func Table(p int) *DegreeTable {
	if p < 1 || p&(p-1) != 0 {
		return newDegreeTable(p)
	}
	slot := &tables[bits.TrailingZeros(uint(p))]
	if t := slot.Load(); t != nil {
		return t
	}
	if t := newDegreeTable(p); slot.CompareAndSwap(nil, t) {
		return t
	}
	return slot.Load()
}

// newDegreeTable builds p's table in three allocations: the table, its
// rows, and one array every row's quantiles are carved from.
func newDegreeTable(p int) *DegreeTable {
	// d^L = p with d ≥ 2 needs L ≤ log₂ p; the degree grows as L falls. For
	// p = 2^k this yields 2^(k/L) for each L dividing k.
	var found [64]degreeRow
	n, quantiles := 0, 0
	for levels := bits.Len(uint(max(p, 1))) - 1; levels >= 1; levels-- {
		if d := root(p, levels); d != 0 {
			found[n] = degreeRow{degree: d, levels: levels}
			n++
			quantiles += levels
		}
	}
	t := &DegreeTable{p: p, emax: stats.ExpectedMaxNormalAsymptotic(p), rows: make([]degreeRow, n)}
	q := make([]float64, quantiles)
	for i, r := range found[:n] {
		r.q, q = q[:r.levels:r.levels], q[r.levels:]
		for l := range r.q {
			pb := PBefore(r.degree, l, r.levels)
			if l == r.levels-1 {
				// Φ⁻¹(0) = −∞. Algorithm 1 replaces the earliest subset's
				// fraction by the middle of its quantile range: the subset
				// spans [0, PBefore(S_{L−2})], so the paper halves
				// PBefore(S_{L−2}). For the flat single-level tree the lone
				// subset spans [0, 1−1/p], giving (1−1/p)/2 by the same rule.
				if r.levels >= 2 {
					pb = PBefore(r.degree, r.levels-2, r.levels) / 2
				} else {
					pb = (1 - 1/float64(p)) / 2
				}
			}
			r.q[l] = stats.NormalQuantile(pb)
		}
		t.rows[i] = r
	}
	return t
}

// root returns the d ≥ 2 with d^levels == p, or 0 when there is none.
func root(p, levels int) int {
	if levels == 1 {
		return p
	}
	r := int(math.Round(math.Pow(float64(p), 1/float64(levels))))
	for d := max(r-1, 2); d <= r+1; d++ {
		v, l := 1, 0
		for ; l < levels && v <= p/d; l++ {
			v *= d
		}
		if l == levels && v == p {
			return d
		}
	}
	return 0
}

// Optimal is EstimateOptimalDegree on this table's p. tc = 0 selects
// DefaultTc. It allocates nothing.
func (t *DegreeTable) Optimal(sigma, tc float64) DegreeEstimate {
	if tc == 0 {
		tc = DefaultTc
	}
	best := DegreeEstimate{Degree: -1}
	for i := range t.rows {
		r := &t.rows[i]
		delay := r.eval(t.emax, sigma, tc, nil)
		// Scanning in increasing degree order, a tie (within relative 1e-12)
		// is won by the later — larger — degree.
		if best.Degree < 0 || delay < best.Delay*(1+1e-12) {
			best = DegreeEstimate{Degree: r.degree, Levels: r.levels, Delay: delay}
		}
	}
	if best.Degree < 0 {
		panic(fmt.Sprintf("model: no full-tree degree for p=%d", t.p))
	}
	return best
}

// Sweep is EstimateSweep on this table's p. tc = 0 selects DefaultTc.
func (t *DegreeTable) Sweep(sigma, tc float64) []DegreeEstimate {
	if tc == 0 {
		tc = DefaultTc
	}
	var out []DegreeEstimate
	for i := range t.rows {
		r := &t.rows[i]
		out = append(out, DegreeEstimate{Degree: r.degree, Levels: r.levels, Delay: r.eval(t.emax, sigma, tc, nil)})
	}
	return out
}

// eval runs Algorithm 1 for this degree and returns the synchronization
// delay. emax is E[max] for the table's p; tc must already be defaulted.
// A non-nil b, its subset slices sized to the levels, receives the
// breakdown.
func (r *degreeRow) eval(emax, sigma, tc float64, b *Breakdown) float64 {
	// Step 2: the last processor (Eq. 5, 7).
	lastArrival := sigma * emax
	lastRelease := lastArrival + float64(r.levels)*tc
	release, critical := lastRelease, -1
	// Step 1: subset arrival and release times (Eq. 2, 4, 1, 6).
	for l, q := range r.q {
		arr := 0.0
		if sigma != 0 {
			arr = sigma * q
		}
		// Subset S_l plus the climber from below form a full (l+1)-level
		// subtree rooted at the path counter of level l (Eq. 1), after
		// which the finisher updates the path counters at levels
		// l+1 … L−1 (Eq. 6).
		rel := arr + Contention(r.degree, l+1, tc) + float64(r.levels-1-l)*tc
		if b != nil {
			b.SubsetArrival[l], b.SubsetRelease[l] = arr, rel
		}
		if rel > release {
			release, critical = rel, l
		}
	}
	// Step 3: Eq. 8.
	delay := release - lastArrival
	if b != nil {
		b.LastArrival, b.LastRelease, b.CriticalSubset = lastArrival, lastRelease, critical
	}
	return delay
}

// OptimalDegreeSimultaneous returns the continuous minimizer of Eq. 1 under
// simultaneous arrival, d = e ≈ 2.718 (§3): minimizing L·d·t_c with
// L = ln p / ln d minimizes d / ln d.
func OptimalDegreeSimultaneous() float64 { return math.E }

func pow(b, e int) int {
	v := 1
	for i := 0; i < e; i++ {
		v *= b
	}
	return v
}
