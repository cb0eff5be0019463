package barriersim

import (
	"fmt"
	"math"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
)

// This file models the classic non-combining barriers — dissemination and
// tournament — under load imbalance, as baselines for the paper's
// combining trees (the paper's §2 relates to both). Their synchronization
// structures are static butterflies/trees of point-to-point signals, so
// their delay follows a deterministic recurrence over the arrival times;
// no event queue is needed.

// DisseminationDelay returns the synchronization delay of a dissemination
// barrier: processor i finishes round r once both it and its partner
// (i − 2^r mod p) have finished round r−1, paying tc per round for the
// signal. The delay is the last processor's completion of the final round
// minus the last arrival. It is Θ(log₂ p · tc) after the last arrival for
// any arrival spread — the structural reason imbalance-aware combining
// trees can beat it.
func DisseminationDelay(arrivals []float64, tc float64) float64 {
	p := len(arrivals)
	if p == 0 {
		panic("barriersim: no arrivals")
	}
	cur := append([]float64(nil), arrivals...)
	next := make([]float64, p)
	last := stats.Max(arrivals)
	for dist := 1; dist < p; dist *= 2 {
		for i := 0; i < p; i++ {
			from := (i - dist + p) % p
			next[i] = math.Max(cur[i], cur[from]) + tc
		}
		cur, next = next, cur
	}
	if p == 1 {
		return 0
	}
	return stats.Max(cur) - last
}

// TournamentDelay returns the synchronization delay of a tournament
// barrier with statically determined winners: in round r the loser
// (bit r set) signals its winner, which proceeds after max(own, loser's)
// time plus tc. The champion's final time plus one release-flag update is
// the release. The delay is release minus last arrival.
func TournamentDelay(arrivals []float64, tc float64) float64 {
	p := len(arrivals)
	if p == 0 {
		panic("barriersim: no arrivals")
	}
	if p == 1 {
		return 0
	}
	t := append([]float64(nil), arrivals...)
	last := stats.Max(arrivals)
	for bit := 1; bit < p; bit *= 2 {
		for i := 0; i < p; i++ {
			if i&bit != 0 || i|bit >= p {
				continue
			}
			t[i] = math.Max(t[i], t[i|bit]) + tc
		}
	}
	release := t[0] + tc // champion flips the global release flag
	return release - last
}

// CentralDelay returns the synchronization delay of a flat central-counter
// barrier: p serialized updates of one counter. It equals the combining
// tree of degree ≥ p and is provided for closed-form cross-checks.
func CentralDelay(arrivals []float64, tc float64) float64 {
	p := len(arrivals)
	if p == 0 {
		panic("barriersim: no arrivals")
	}
	free := math.Inf(-1)
	sorted := append([]float64(nil), arrivals...)
	// Serve in arrival order.
	sortFloat64s(sorted)
	for _, a := range sorted {
		start := math.Max(a, free)
		free = start + tc
	}
	return free - sorted[p-1]
}

func sortFloat64s(xs []float64) {
	// Insertion sort is fine for the sizes used here? No — p reaches 4096.
	// Use a simple heap sort to stay allocation-free and O(n log n).
	n := len(xs)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(xs, i, n)
	}
	for end := n - 1; end > 0; end-- {
		xs[0], xs[end] = xs[end], xs[0]
		siftDown(xs, 0, end)
	}
}

func siftDown(xs []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && xs[child+1] > xs[child] {
			child++
		}
		if xs[root] >= xs[child] {
			return
		}
		xs[root], xs[child] = xs[child], xs[root]
		root = child
	}
}

// BaselineKind selects a baseline barrier structure.
type BaselineKind int

// Baseline barrier structures.
const (
	// Dissemination is the Hensgen/Finkel/Manber butterfly barrier.
	Dissemination BaselineKind = iota
	// Tournament is the statically-seeded tournament barrier.
	Tournament
	// Central is the flat single-counter barrier.
	Central
)

func (k BaselineKind) String() string {
	switch k {
	case Dissemination:
		return "dissemination"
	case Tournament:
		return "tournament"
	case Central:
		return "central"
	default:
		return fmt.Sprintf("BaselineKind(%d)", int(k))
	}
}

// BaselineDelay dispatches on kind.
func BaselineDelay(kind BaselineKind, arrivals []float64, tc float64) float64 {
	switch kind {
	case Dissemination:
		return DisseminationDelay(arrivals, tc)
	case Tournament:
		return TournamentDelay(arrivals, tc)
	case Central:
		return CentralDelay(arrivals, tc)
	default:
		panic("barriersim: unknown baseline kind")
	}
}

// RunBaselineIID measures a baseline barrier over independent episodes of
// iid arrivals, mirroring RunIID's protocol so results are comparable.
func RunBaselineIID(kind BaselineKind, p int, tc float64, dist stats.Distribution, episodes int, seed uint64) RunResult {
	if episodes <= 0 {
		panic("barriersim: need at least one episode")
	}
	if tc == 0 {
		tc = model.DefaultTc
	}
	r := stats.NewRNG(seed)
	rr := RunResult{Episodes: episodes, SyncDelays: make([]float64, 0, episodes), CommOverhead: 1}
	for k := 0; k < episodes; k++ {
		arr := loadmodel.SampleArrivals(p, dist, r)
		d := BaselineDelay(kind, arr, tc)
		rr.MeanSync += d
		rr.SyncDelays = append(rr.SyncDelays, d)
	}
	rr.MeanSync /= float64(episodes)
	return rr
}
