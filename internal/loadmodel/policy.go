package loadmodel

import (
	"fmt"
	"sort"

	rt "softbarrier/internal/runtime"
)

// PlacementPolicy consumes per-participant arrival-lag history and emits
// the order in which participants should occupy a combining tree's slots,
// laggiest-predicted-first — rank k goes to the k-th shallowest slot via
// topology.PlaceByDepth, so predicted stragglers sit nearest the root and
// their late arrival climbs the fewest levels.
//
// Observe is called once per episode with that episode's lags: arrival
// times minus the episode's earliest arrival, in seconds, indexed by
// participant id. A length change means membership changed; policies
// must reset their history. Order returns the current laggiest-first
// permutation of [0, p), or nil when the policy has no (new) opinion —
// callers treat nil as "keep the current placement". Policies are not
// safe for concurrent use; barriers call them from the releaser only.
type PlacementPolicy interface {
	Observe(lags []float64)
	Order() []int
	String() string
}

// Rank returns the stable laggiest-first permutation of its input:
// Rank([0, 5ms, 1ms]) = [1, 2, 0]. Ties keep ascending-id order, so a
// uniform episode yields the identity permutation.
func Rank(lags []float64) []int {
	order := make([]int, len(lags))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return lags[order[a]] > lags[order[b]]
	})
	return order
}

// Static is the do-nothing policy: it never emits an order, so the tree
// keeps its natural ascending-id placement. It is the baseline every
// predictive policy is measured against.
type Static struct{}

// Observe discards the episode.
func (Static) Observe([]float64) {}

// Order always returns nil.
func (Static) Order() []int { return nil }

func (Static) String() string { return "static" }

// Reactive ranks by the last episode's lags only — the paper's dynamic
// placement generalized from "move the single last arrival" to a full
// laggiest-first order. It has zero memory: one noisy episode fully
// reorders the tree, which is exactly the weakness the EWMA and Trend
// policies (and the Hysteresis wrapper) address.
type Reactive struct {
	order []int
}

// Observe ranks the episode's lags.
func (p *Reactive) Observe(lags []float64) { p.order = Rank(lags) }

// Order returns the last episode's ranking, nil before any episode.
func (p *Reactive) Order() []int { return p.order }

func (p *Reactive) String() string { return "reactive" }

// EWMA ranks by an exponentially weighted moving average of each
// participant's lag, so persistent stragglers dominate one-off noise.
// Weight is that of the newest episode; 0 (or anything outside (0, 1])
// selects runtime.DefaultSigmaWeight.
type EWMA struct {
	Weight float64

	lags []float64
}

// Observe folds the episode into the per-participant EWMA. The first
// episode, and the first after a length change, seeds it.
func (p *EWMA) Observe(lags []float64) {
	if len(lags) != len(p.lags) {
		p.lags = append(p.lags[:0], lags...)
		return
	}
	w := p.Weight
	if w <= 0 || w > 1 {
		w = rt.DefaultSigmaWeight
	}
	for i, l := range lags {
		p.lags[i] += w * (l - p.lags[i])
	}
}

// Order ranks the EWMA lags, nil before any episode and after an empty
// one.
func (p *EWMA) Order() []int {
	if len(p.lags) == 0 {
		return nil
	}
	return Rank(p.lags)
}

func (p *EWMA) String() string { return "ewma" }

// Trend keeps a sliding window of recent episodes per participant and
// ranks by a one-step least-squares extrapolation of each participant's
// lag — it predicts who will be late *next* episode, so a participant
// whose lag is climbing outranks one whose equal lag is fading. Window 0
// selects 8. With fewer than two observed episodes it has no opinion.
type Trend struct {
	// Window is the history length in episodes; 0 selects 8.
	Window int

	hist [][]float64 // hist[i] = participant i's recent lags, oldest first
	pred []float64
}

// window is the history length in force.
func (p *Trend) window() int {
	if p.Window <= 0 {
		return 8
	}
	return p.Window
}

// Observe appends the episode to each participant's window.
func (p *Trend) Observe(lags []float64) {
	w := p.window()
	if len(p.hist) != len(lags) {
		p.hist = make([][]float64, len(lags))
		p.pred = make([]float64, len(lags))
	}
	for i, l := range lags {
		h := append(p.hist[i], l)
		if len(h) > w {
			h = h[1:]
		}
		p.hist[i] = h
	}
}

// Order ranks the one-step extrapolations, nil with under two episodes.
func (p *Trend) Order() []int {
	if len(p.hist) == 0 || len(p.hist[0]) < 2 {
		return nil
	}
	for i, h := range p.hist {
		p.pred[i] = extrapolate(h)
	}
	return Rank(p.pred)
}

func (p *Trend) String() string { return fmt.Sprintf("trend(w=%d)", p.window()) }

// extrapolate fits lag = a + b·t over t = 0..n-1 by least squares and
// returns the value at t = n (one step past the window).
func extrapolate(h []float64) float64 {
	n := float64(len(h))
	var sumT, sumY, sumTY, sumTT float64
	for t, y := range h {
		ft := float64(t)
		sumT += ft
		sumY += y
		sumTY += ft * y
		sumTT += ft * ft
	}
	den := n*sumTT - sumT*sumT
	if den == 0 {
		return sumY / n
	}
	b := (n*sumTY - sumT*sumY) / den
	a := (sumY - b*sumT) / n
	return a + b*n
}

// Hysteresis wraps an inner policy and suppresses its order unless it
// differs enough from the last order Hysteresis emitted: the largest
// single rank displacement, normalized by p, must reach MinShift
// (0 selects 0.25) — a genuine straggler change moves someone to or from
// the front and scores near 1, while σ-noise permuting near-tied
// neighbours scores 1/p. Without it, σ-level noise in the lag estimates
// permutes near-tied participants every episode and each permutation is
// a full tree rebuild; with it, only a genuine straggler change pays the
// rebuild cost. A length change (membership change) always passes.
type Hysteresis struct {
	Inner PlacementPolicy
	// MinShift is the emission threshold in [0, 1]; 0 selects 0.25.
	MinShift float64

	last []int
}

// Observe forwards to the inner policy.
func (p *Hysteresis) Observe(lags []float64) { p.Inner.Observe(lags) }

// Order returns the inner order when it has shifted by at least
// MinShift since the last emission, nil otherwise.
func (p *Hysteresis) Order() []int {
	order := p.Inner.Order()
	if order == nil {
		return nil
	}
	if p.last == nil || len(p.last) != len(order) {
		p.last = order
		return order
	}
	if rankShift(p.last, order) >= p.minShift() {
		p.last = order
		return order
	}
	return nil
}

// minShift is the emission threshold in force.
func (p *Hysteresis) minShift() float64 {
	if p.MinShift == 0 {
		return 0.25
	}
	return p.MinShift
}

func (p *Hysteresis) String() string { return fmt.Sprintf("%v+hys(%g)", p.Inner, p.minShift()) }

// rankShift is the largest absolute rank displacement between two
// permutations of the same ids, normalized by the length: 0 for equal
// orders, (p-1)/p when an id moves between the two ends.
func rankShift(a, b []int) float64 {
	rank := make([]int, len(a))
	for r, id := range a {
		rank[id] = r
	}
	max := 0
	for r, id := range b {
		d := rank[id] - r
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return float64(max) / float64(len(a))
}

// policyFactories maps the stable CLI/config names to constructors. A
// fresh instance per call: policies are stateful and single-owner.
var policyFactories = []struct {
	name string
	make func() PlacementPolicy
}{
	{"static", func() PlacementPolicy { return Static{} }},
	{"reactive", func() PlacementPolicy { return &Reactive{} }},
	{"ewma", func() PlacementPolicy { return &EWMA{} }},
	{"trend", func() PlacementPolicy { return &Trend{} }},
	{"ewma-hys", func() PlacementPolicy { return &Hysteresis{Inner: &EWMA{}} }},
}

// PolicyByName returns a factory for the named placement policy. Names
// are stable across releases: static, reactive, ewma, trend, ewma-hys.
func PolicyByName(name string) (func() PlacementPolicy, bool) {
	for _, f := range policyFactories {
		if f.name == name {
			return f.make, true
		}
	}
	return nil, false
}

// PolicyNames lists the registered policy names in registration order.
func PolicyNames() []string {
	names := make([]string, len(policyFactories))
	for i, f := range policyFactories {
		names[i] = f.name
	}
	return names
}
