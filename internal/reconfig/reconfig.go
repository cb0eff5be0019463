// Package reconfig is the epoch-based reconfiguration core of
// softbarrier.ReconfigurableBarrier — and, through the one barrier each
// networked session runs on, of internal/netbarrier: degree and
// membership changes are driven through a Controller instead of a
// hand-rolled replan loop.
//
// A barrier configuration (participant count, tree degree) is an *epoch*.
// The participant that releases an episode — and is therefore at a point
// where no other participant can be touching barrier state — asks the
// controller to Evaluate. Off the hot path the controller folds the
// measured arrival spread into the EWMA σ estimate, consults an injected
// Recommender, and applies hysteresis; when a new configuration is due it
// hands back a Plan, which the caller applies (rebuilding trees, resizing
// recorders and arrival counters) and then Commits, all before opening the
// release gate. Every other episode costs one mutex acquisition on the
// releaser only.
//
// Membership changes (Grow/Shrink/RequestP from any goroutine) are
// queued targets: the next Evaluate always plans when a resize is
// pending, regardless of the replan cadence, so joins and leaves land at
// the very next episode boundary.
package reconfig

import (
	"fmt"
	"sync"

	rt "softbarrier/internal/runtime"
)

// Config tunes the controller's replan cadence and hysteresis. The zero
// value re-plans every episode with no hysteresis.
type Config struct {
	// ReplanEvery is how many episodes pass between degree
	// re-evaluations; 0 means every episode (normalized to 1).
	ReplanEvery uint64
	// MinEpisodesBetween is the hysteresis floor on rebuild frequency:
	// a plan whose only motive is a degree change is deferred until at
	// least this many episodes have passed since the last committed
	// rebuild. Membership changes are never deferred. 0 disables the
	// floor.
	MinEpisodesBetween uint64
	// MinDegreeDelta is the hysteresis floor on degree movement: a
	// recommended degree closer than this to the current one does not
	// trigger a rebuild (unless membership changes). 0 normalizes to 1 —
	// any change rebuilds.
	MinDegreeDelta int
	// InitialSigma is the arrival spread assumed while the σ estimator
	// is unseeded, seconds.
	InitialSigma float64
}

// Normalized returns the config with defaulting applied: ReplanEvery
// 0 → 1 and MinDegreeDelta < 1 → 1.
func (c Config) Normalized() Config {
	if c.ReplanEvery == 0 {
		c.ReplanEvery = 1
	}
	if c.MinDegreeDelta < 1 {
		c.MinDegreeDelta = 1
	}
	return c
}

// Plan is one epoch's barrier configuration, computed off the hot path by
// Evaluate and applied exactly once by the releasing participant before
// it opens the episode's gate.
type Plan struct {
	// Epoch is the 0-based configuration index; the initial
	// configuration is epoch 0 and every committed plan increments it.
	Epoch uint64
	// P is the participant count the epoch runs at.
	P int
	// Degree is the combining-tree degree.
	Degree int
	// Sigma is the σ estimate the plan was derived from, seconds.
	Sigma float64
	// Episodes is how many episodes had been observed at plan time.
	Episodes uint64
}

// Stats is the unified reconfiguration telemetry every elastic barrier
// exposes: epoch and rebuild counts plus the last plan (which carries the
// σ at plan time).
type Stats struct {
	// Epochs is how many configurations the barrier has run, including
	// the initial one: Rebuilds + 1.
	Epochs uint64
	// Rebuilds is how many committed plans rebuilt the barrier.
	Rebuilds uint64
	// Evals counts Evaluate calls (one per episode).
	Evals uint64
	// Deferred counts plans suppressed by the MinEpisodesBetween floor.
	Deferred uint64
	// Placements counts placement-only rebuilds: same configuration,
	// slots re-ordered by a placement policy's predicted-straggler order.
	Placements uint64
	// LastPlan is the most recently committed plan; for a barrier that
	// never re-planned it describes the initial configuration.
	LastPlan Plan
}

// Recommender maps a (participant count, σ estimate) pair to a tree
// degree. Injecting it keeps the analytic model out of this package: the
// root package wires OptimalDegree.
type Recommender func(p int, sigma float64) (degree int)

// Controller owns one barrier's reconfiguration state. Observe and
// Evaluate/Commit run on the releasing participant at the episode's
// quiescent point; RequestP, Grow, Shrink, Sigma and Stats are safe from
// any goroutine.
type Controller struct {
	cfg Config
	est *rt.SigmaEstimator
	rec Recommender

	mu       sync.Mutex
	cur      Plan
	targetP  int // pending membership target; 0 = none
	rebuilds uint64
	evals    uint64
	deferred uint64
	placed   uint64
	lastAt   uint64 // est episode count at the last committed rebuild
}

// New returns a controller starting from the given initial configuration.
// initial.Epoch is forced to 0 and initial.Sigma defaults to the config's
// InitialSigma when unset. est is the (possibly shared) EWMA σ estimator
// the controller folds spreads into; it must already be initialized.
func New(cfg Config, est *rt.SigmaEstimator, rec Recommender, initial Plan) *Controller {
	if initial.P < 1 {
		panic("reconfig: initial plan needs at least one participant")
	}
	if rec == nil {
		panic("reconfig: nil recommender")
	}
	cfg = cfg.Normalized()
	initial.Epoch = 0
	if initial.Sigma == 0 {
		initial.Sigma = cfg.InitialSigma
	}
	return &Controller{cfg: cfg, est: est, rec: rec, cur: initial}
}

// Config returns the normalized configuration.
func (c *Controller) Config() Config { return c.cfg }

// Observe folds one episode's measured arrival spread (seconds) into the
// σ estimate. Called by the releasing participant before Evaluate.
func (c *Controller) Observe(spread float64) { c.est.Observe(spread) }

// Sigma returns the σ the next plan would be derived from: the measured
// EWMA once at least one episode has been observed, the configured
// InitialSigma before that.
func (c *Controller) Sigma() float64 {
	if c.est.Episodes() > 0 {
		return c.est.Sigma()
	}
	return c.cfg.InitialSigma
}

// Episodes returns how many spreads have been observed.
func (c *Controller) Episodes() uint64 { return c.est.Episodes() }

// Current returns the configuration of the running epoch.
func (c *Controller) Current() Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// RequestP queues a membership target: the next Evaluate plans a resize
// to p regardless of the replan cadence. Safe from any goroutine; the
// last request before the boundary wins.
func (c *Controller) RequestP(p int) error {
	if p < 1 {
		return fmt.Errorf("reconfig: membership target %d below 1", p)
	}
	c.mu.Lock()
	c.targetP = p
	c.mu.Unlock()
	return nil
}

// RequestDelta adjusts the pending membership target (or, absent one, the
// current P) by delta and returns the resulting target.
func (c *Controller) RequestDelta(delta int) (int, error) {
	c.mu.Lock()
	base := c.targetP
	if base == 0 {
		base = c.cur.P
	}
	p := base + delta
	if p < 1 {
		c.mu.Unlock()
		return 0, fmt.Errorf("reconfig: membership target %d below 1", p)
	}
	c.targetP = p
	c.mu.Unlock()
	return p, nil
}

// TargetP returns the pending membership target, or 0 when none is
// queued.
func (c *Controller) TargetP() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.targetP
}

// Evaluate decides, at the episode's quiescent point, whether a new epoch
// is due. A pending membership change always yields a plan; otherwise a
// plan is produced only on the replan cadence, when the recommended
// degree moved by at least MinDegreeDelta, and the MinEpisodesBetween
// floor has passed. Only the releasing participant may call it, and a
// returned plan must be applied and Committed before the episode is
// released.
func (c *Controller) Evaluate() (Plan, bool) {
	n := c.est.Episodes()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evals++
	p := c.cur.P
	resize := c.targetP != 0 && c.targetP != c.cur.P
	if resize {
		p = c.targetP
	} else if c.targetP != 0 {
		c.targetP = 0 // target equals the current P; nothing to do
	}
	cadence := n > 0 && n%c.cfg.ReplanEvery == 0
	if !resize && !cadence {
		return Plan{}, false
	}
	sigma := c.sigmaLocked(n)
	deg := c.rec(p, sigma)
	if !resize {
		delta := deg - c.cur.Degree
		if delta < 0 {
			delta = -delta
		}
		if delta < c.cfg.MinDegreeDelta {
			return Plan{}, false
		}
		if n-c.lastAt < c.cfg.MinEpisodesBetween {
			c.deferred++
			return Plan{}, false
		}
	}
	return Plan{
		Epoch:    c.cur.Epoch + 1,
		P:        p,
		Degree:   deg,
		Sigma:    sigma,
		Episodes: n,
	}, true
}

// PlanResize produces a plan for an immediate, caller-synchronized
// membership change to p — the quiescent Resize path — bypassing cadence
// and hysteresis. The caller must apply and Commit it like any other
// plan.
func (c *Controller) PlanResize(p int) (Plan, error) {
	if p < 1 {
		return Plan{}, fmt.Errorf("reconfig: membership target %d below 1", p)
	}
	n := c.est.Episodes()
	c.mu.Lock()
	defer c.mu.Unlock()
	sigma := c.sigmaLocked(n)
	return Plan{
		Epoch:    c.cur.Epoch + 1,
		P:        p,
		Degree:   c.rec(p, sigma),
		Sigma:    sigma,
		Episodes: n,
	}, nil
}

// sigmaLocked is Sigma with the episode count already sampled.
func (c *Controller) sigmaLocked(n uint64) float64 {
	if n > 0 {
		return c.est.Sigma()
	}
	return c.cfg.InitialSigma
}

// Commit records plan as the running epoch after the caller has applied
// it. A pending membership target the plan satisfies is consumed.
func (c *Controller) Commit(plan Plan) {
	c.mu.Lock()
	c.cur = plan
	c.rebuilds++
	c.lastAt = plan.Episodes
	if c.targetP == plan.P {
		c.targetP = 0
	}
	c.mu.Unlock()
}

// NotePlacement records a placement-only rebuild: the epoch's P/degree
// stand, but the tree was rebuilt with a placement policy's new
// predicted-straggler order. Called by the releasing participant.
func (c *Controller) NotePlacement() {
	c.mu.Lock()
	c.placed++
	c.mu.Unlock()
}

// Rebuilds returns how many plans have been committed.
func (c *Controller) Rebuilds() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebuilds
}

// Stats returns the unified reconfiguration telemetry.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Epochs:     c.rebuilds + 1,
		Rebuilds:   c.rebuilds,
		Evals:      c.evals,
		Deferred:   c.deferred,
		Placements: c.placed,
		LastPlan:   c.cur,
	}
}
