package loadmodel

import (
	"softbarrier/internal/model"
	rt "softbarrier/internal/runtime"
)

// Controller is the run-time re-plan rule the paper's conclusion proposes
// (§8), written once: it folds each measured episode's arrival spread
// into an EWMA σ, re-derives the tree degree from the analytic model on a
// cadence, and asks a placement policy where predicted stragglers go.
// softbarrier's ReconfigurableBarrier runs it at every release, and
// barriersim.RunPlanned runs it on simulated episodes, so the simulator's
// adaptive figures are about the rule a live barrier runs.
//
// A Controller has no clock and takes no lock, and it holds no plan: the
// caller keeps the plan in force and hands it to Step. Its estimator's
// Sigma and Episodes are atomic reads, safe from any goroutine; Step and
// Replan must come from one goroutine at a time, as the placement policy
// requires, and nothing else feeds the estimator.
type Controller struct {
	rt.SigmaEstimator                 // EWMA of the measured spreads, seconds
	every             uint64          // episodes between re-plans
	tc                float64         // the model's counter update cost, seconds
	degree            int             // the pinned degree; 0 plans it from σ
	place             PlacementPolicy // nil: no placement
}

// Plan is the configuration an episode runs on.
type Plan struct {
	// P is the participant count and Degree the combining-tree degree.
	P, Degree int
	// Sigma is the σ estimate the degree was planned from, seconds.
	Sigma float64
	// Order is the placement order, laggiest first (topology.PlaceByDepth);
	// nil is the natural ascending-id placement.
	Order []int
}

// Episode is what one completed episode tells the controller: its 0-based
// index, which the cadence counts; when it was measured, the standard
// deviation of its arrival times and each participant's lag behind the
// earliest arrival, seconds; and the participant count the next episode
// is asked to run at.
type Episode struct {
	Seq      uint64
	Spread   float64
	Measured bool
	Lags     []float64 // nil when not measured
	Target   int
}

// Change is what a Step decided the next episode runs on.
type Change uint8

const (
	Same     Change = iota // the plan in force
	Reorder                // the same P and degree, a new placement order
	NewEpoch               // a new P or degree
)

// Init sets the controller up: a re-plan every `every` episodes (0 or 1:
// every episode), the model's counter update cost tc (0: model.DefaultTc),
// a degree pinned for good (0: planned from σ) and an optional placement
// policy. The σ estimate starts unseeded.
func (c *Controller) Init(every int, tc float64, degree int, place PlacementPolicy) {
	if tc == 0 {
		tc = model.DefaultTc
	}
	c.SigmaEstimator.Init()
	c.every, c.tc, c.degree, c.place = uint64(max(every, 1)), tc, degree, place
}

// NewController returns a controller set up by Init.
func NewController(every int, tc float64, degree int, place PlacementPolicy) *Controller {
	c := new(Controller)
	c.Init(every, tc, degree, place)
	return c
}

// Step folds one completed episode into the controller and moves *plan,
// the plan in force, to the one the next episode runs on. A measured
// spread goes into σ and the lags into the placement policy. A changed
// target is a new epoch at once; otherwise only the last episode of each
// cadence is planned: a new epoch when the degree moved, else a reorder
// (only Order changes) when the policy's order did. Off the cadence it
// reads nothing of *plan but P. It allocates nothing beyond what the
// policy's Order does.
func (c *Controller) Step(plan *Plan, e *Episode) Change {
	if e.Measured {
		c.Observe(e.Spread)
	}
	if c.place != nil && len(e.Lags) > 0 {
		c.place.Observe(e.Lags)
	}
	if e.Target == plan.P && (e.Seq+1)%c.every != 0 {
		return Same
	}
	next, moved := c.plan(*plan, e.Target)
	switch {
	case next.P != plan.P || next.Degree != plan.Degree:
		*plan = next
		return NewEpoch
	case moved:
		plan.Order = next.Order
		return Reorder
	}
	return Same
}

// Replan returns the plan of a new epoch at p participants after cur,
// planned now whatever the cadence. The first epoch is planned the same
// way, after a plan that holds only the spread assumed before any is
// measured: Replan(Plan{Sigma: assumed}, p).
func (c *Controller) Replan(cur Plan, p int) Plan {
	next, _ := c.plan(cur, p)
	return next
}

// plan plans p participants after cur: the degree for σ (the measured
// estimate, or before any the σ cur was planned from) and the placement,
// with whether the placement differs from cur's. The placement is the
// policy's order when it has one for p participants, else cur's when it
// still fits, else the natural one; nil and the identity are one order.
// It asks the policy once: hysteresis policies record what they emit.
func (c *Controller) plan(cur Plan, p int) (next Plan, moved bool) {
	next = Plan{P: p, Sigma: cur.Sigma}
	if c.Episodes() > 0 {
		next.Sigma = c.Sigma()
	}
	next.Degree = c.degree
	if next.Degree == 0 {
		next.Degree = model.OptimalDegree(p, next.Sigma, c.tc)
	}
	if len(cur.Order) == p {
		next.Order = cur.Order
	}
	var order []int
	if c.place != nil {
		order = c.place.Order()
	}
	if len(order) != p {
		return next, false
	}
	for k, id := range order {
		if next.Order == nil && id != k || next.Order != nil && id != next.Order[k] {
			next.Order = order
			return next, true
		}
	}
	return next, false
}

// Placing reports whether a placement policy is armed.
func (c *Controller) Placing() bool { return c.place != nil }

// MeasureEvery is how often the controller reads a measured episode: each
// one for a placement policy, else the last of each cadence.
func (c *Controller) MeasureEvery() uint64 {
	if c.place != nil {
		return 1
	}
	return c.every
}
