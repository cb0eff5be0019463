package barriersim

import (
	"sort"

	"softbarrier/internal/stats"
	"softbarrier/internal/sweep"
	"softbarrier/internal/topology"
)

// DegreeCandidates returns the tree degrees worth trying for p processors:
// every power of two from 2 up to p, plus p itself (the flat single-counter
// barrier) when p is not a power of two. This matches the degree grid of
// the paper's exhaustive search.
func DegreeCandidates(p int) []int {
	var ds []int
	for d := 2; d < p; d *= 2 {
		ds = append(ds, d)
	}
	ds = append(ds, p) // flat barrier
	return ds
}

// TreeBuilder constructs a tree for p processors and degree d. Use
// topology.NewClassic or topology.NewMCS.
type TreeBuilder func(p, d int) *topology.Tree

// DegreeResult is the outcome of simulating one candidate degree.
type DegreeResult struct {
	Degree   int
	MeanSync float64
	Levels   int
}

// DegreeSweep simulates every candidate degree with identical arrival
// streams and returns the per-degree results sorted by degree. Each
// candidate is one point on eng (nil runs them sequentially). Every degree
// deliberately reuses the caller's seed — not the engine's derived
// per-point seed — so that degree comparisons stay paired (common random
// numbers); results are identical for every engine and worker count.
func DegreeSweep(eng *sweep.Engine, p int, build TreeBuilder, cfg Config, dist stats.Distribution, episodes int, seed uint64) []DegreeResult {
	ds := DegreeCandidates(p)
	trees := make([]*topology.Tree, len(ds))
	for i, d := range ds {
		trees[i] = build(p, d)
	}
	out := sweep.Run(eng, sweep.Spec{Points: len(ds), BaseSeed: seed},
		func(i int, _ uint64) DegreeResult {
			rr := RunIID(trees[i], cfg, dist, episodes, seed)
			return DegreeResult{Degree: ds[i], MeanSync: rr.MeanSync, Levels: trees[i].Levels}
		})
	sort.Slice(out, func(i, j int) bool { return out[i].Degree < out[j].Degree })
	return out
}

// Best returns the result with the smallest mean delay. Ties (within
// floating-point noise) go to the larger degree: equal delay with a wider
// tree means fewer counters and hence fewer communications. This matches
// the paper's degree-4 optimum at σ = 0, where degrees 2 and 4 both yield
// exactly L·d·t_c. It panics on an empty sweep.
func Best(results []DegreeResult) DegreeResult {
	if len(results) == 0 {
		panic("barriersim: empty degree sweep")
	}
	best := results[0]
	for _, r := range results[1:] {
		switch {
		case r.MeanSync < best.MeanSync*(1-1e-9):
			best = r
		case r.MeanSync < best.MeanSync*(1+1e-9) && r.Degree > best.Degree:
			best = r
		}
	}
	return best
}

// DelayOf returns the mean delay of degree d in results, or NaN-free zero
// and false if d was not part of the sweep.
func DelayOf(results []DegreeResult, d int) (float64, bool) {
	for _, r := range results {
		if r.Degree == d {
			return r.MeanSync, true
		}
	}
	return 0, false
}

// OptimalDegree runs a sweep and returns the delay-minimizing degree with
// its speedup over a degree-4 tree (the previously assumed optimum), the
// paper's headline metric in Figs. 3 and 12.
func OptimalDegree(p int, build TreeBuilder, cfg Config, dist stats.Distribution, episodes int, seed uint64) (best DegreeResult, speedupVs4 float64, all []DegreeResult) {
	all = DegreeSweep(nil, p, build, cfg, dist, episodes, seed)
	best = Best(all)
	if d4, ok := DelayOf(all, 4); ok && best.MeanSync > 0 {
		speedupVs4 = d4 / best.MeanSync
	} else {
		speedupVs4 = 1
	}
	return best, speedupVs4, all
}
