package softbarrier

import "softbarrier/internal/loadmodel"

// PlacementPolicy consumes per-participant arrival-lag history — one
// Observe per episode, lags in seconds behind the episode's earliest
// arrival — and emits the order in which participants should occupy the
// combining tree's slots, laggiest-predicted-first: rank k lands on the
// k-th shallowest slot, so a predicted straggler's late arrival climbs
// one or two counters instead of a full leaf-to-root path. Order may
// return nil, meaning "no (new) opinion; keep the current placement".
//
// Policies live in internal/loadmodel (reactive last-arrival, EWMA,
// history-window trend, hysteresis-damped variants) and are constructed
// here by name via PlacementByName. A policy instance is stateful and
// single-owner: barriers call it only from the releasing participant at
// the episode's quiescent point.
type PlacementPolicy = loadmodel.PlacementPolicy

// PlacementByName returns a constructor for the named placement policy —
// one of PlacementNames: "static", "reactive", "ewma", "trend",
// "ewma-hys". Policies are code and cannot travel the wire, so networked
// deployments select them by these stable names (barrierd -placement).
func PlacementByName(name string) (func() PlacementPolicy, bool) {
	return loadmodel.PolicyByName(name)
}

// PlacementNames lists the registered placement-policy names.
func PlacementNames() []string { return loadmodel.PolicyNames() }

// WithPlacementPolicy arms predictive straggler placement on barriers
// that can rebuild their tree: every episode the releasing participant
// feeds the measured per-participant lags to pol, and at the replan
// cadence a changed Order triggers a placement-only rebuild that puts
// predicted stragglers in the shallowest slots (ReconfigStats.Placements
// counts these). On ReconfigurableBarrier the epoch trees are built
// MCS-style when a policy is armed: classic trees put every participant
// at the same depth, so there would be nothing for placement to choose.
// Wrap noisy policies in loadmodel.Hysteresis (or use "ewma-hys") to keep
// σ-level rank jitter from rebuilding the tree every cadence. Barriers
// that never rebuild (central, sense-reversing, …) ignore the option.
func WithPlacementPolicy(pol PlacementPolicy) Option {
	return func(o *options) { o.placement = pol }
}
