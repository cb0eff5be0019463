// Package softbarrier is a library of software synchronization barriers
// for shared-memory parallel programs, reproducing the design space of
// Eichenberger & Abraham, "Impact of Load Imbalance on the Design of
// Software Barriers" (ICPP 1995).
//
// # Barriers
//
//   - CentralBarrier: a single sense-reversing counter — the simplest
//     barrier, optimal only when arrivals are widely spread.
//   - TreeBarrier: a combining tree of counters, either classic
//     (processors at the leaves; NewCombiningTree) or MCS-style (one
//     processor attached to every counter; NewMCSTree). The tree degree is
//     the central tuning knob: degree ≈ 4 is best under simultaneous
//     arrival, much wider trees are best under load imbalance.
//   - DynamicBarrier: the paper's contribution — an MCS-style tree whose
//     placement adapts at run time: a processor that keeps arriving last
//     migrates toward the root (victor/victim swaps), cutting its
//     synchronization path from O(log p) to O(1) when arrival order is
//     predictable (systemic imbalance, or fuzzy barriers with slack).
//   - ReconfigurableBarrier: a tree barrier whose configuration is an
//     epoch it replaces itself: it measures the arrival spread σ (of
//     the episodes a decision reads: one in ReplanEvery, or all for an
//     Observer or placement policy), re-derives its degree from the
//     paper's analytic model — the
//     run-time adaptation the paper's conclusion proposes — and is
//     elastic: Grow/Shrink/Resize change the participant count at episode
//     boundaries while waiters drain safely. Every rebuild happens at a
//     quiescent point via one atomic pointer swap; ReconfigStats reports
//     the epoch and rebuild history.
//
// The three tree barriers are one combining tree (treeCore): the counter
// ascent, the release (one broadcast gate, opened by whoever completes the
// root) and the collective path exist once, and each
// barrier adds only its answer to "who sits where" — a fixed placement,
// victor/victim swaps during the ascent, or a new epoch at the root.
//
// The library also ships the classic baselines the paper compares
// against: DisseminationBarrier (the Hensgen/Finkel/Manber butterfly) and
// TournamentBarrier.
//
// All barriers implement Barrier; the tree-based ones also implement
// PhasedBarrier, whose split Arrive/Await pair is a fuzzy barrier (Gupta):
// code placed between the two phases overlaps with other processors'
// arrival, converting load imbalance into slack instead of idle time.
//
// # Waiting and telemetry
//
// Every barrier builds on one waiter core (internal/runtime) with a
// bounded spin → yield → park policy, tunable per barrier via
// WithWaitPolicy. WithObserver streams per-episode EpisodeStats —
// arrival spread, synchronization delay, swap and adaptation counts — to
// any Observer; with no observer installed the telemetry path costs
// nothing. The Aggregate observer folds episodes into a measured σ that
// RecommendMeasured feeds back into the planner.
//
// # Failure semantics
//
// Every barrier is Abortable: Poison(err) wakes all current and future
// waiters immediately and Err reports the cause. WaitCtx/AwaitCtx
// (ContextBarrier) tie a wait to a context — cancellation poisons the
// episode, since the cancelled participant will never arrive. The
// WithWatchdog option poisons a stalled episode with a StallError naming
// the un-arrived participants, and Group poisons the barrier when a
// worker panics or errors so the pool drains instead of deadlocking
// (healing the barrier afterwards, so the Group stays reusable). Reset,
// at a quiescent point, returns a poisoned barrier to service.
//
// # Collectives
//
// WithCollective(op) widens the barrier's waves to carry payloads: the
// arrival wave reduces every participant's fixed-width contribution with
// the associative Op and the release wave broadcasts the result —
// AllReduce, Reduce and Broadcast (the Collective interface) as barrier
// episodes, freely mixed with plain Wait. Commutative ops fold during the
// ascent — whoever completes a tree node folds the node's inputs, in input
// order and without a lock — pre-reducing early arrivals while stragglers
// still work; non-commutative ops (OpSumFloat64 — float addition does not
// associate) fold deterministically in ascending id order, so every
// participant receives the bit-identical sequential fold and can branch
// on it unanimously. ReduceOrder plus topology.PlaceByDepth place the
// laggiest participants nearest the root, shortening the straggler's
// fold path. The same reduction runs server-side in cmd/barrierd
// (-collective, Client.AllReduce); OpByName names the built-in ops on
// both sides of the wire.
//
// # Predictive straggler placement
//
// A PlacementPolicy (PlacementByName: reactive, ewma, trend, ewma-hys)
// watches each episode's arrival lags and predicts who will be late
// next; WithPlacementPolicy hands one to the ReconfigurableBarrier,
// which rebuilds its tree at the quiescent release point with predicted
// stragglers in the shallowest slots — an MCS-shaped epoch, where the
// root's local slot is the unique depth-1 position — so a straggler's
// late arrival climbs one counter instead of a leaf-to-root path
// (ReconfigStats.Placements counts these in-place rebuilds, Depths
// exposes the current placement). The ewma and trend policies average
// or extrapolate lag history so one noisy episode does not reorder the
// tree, and ewma-hys adds hysteresis against σ-level rank churn.
// WithPlacement applies a fixed laggiest-first order to the static
// trees; the netbarrier server (cmd/barrierd -placement) runs the same
// policies per session against remote arrival lags. The load models the
// policies are designed against — systemic skew, drifting and bursty
// imbalance — live in internal/loadmodel.
//
// # Choosing a degree
//
// OptimalDegree applies the paper's analytic model (§3–4): give it the
// participant count, the standard deviation of arrival times, and the cost
// of a counter update, and it returns the delay-minimizing tree degree.
//
// # Networked barriers
//
// The same machinery runs across machine boundaries: cmd/barrierd (on
// internal/netbarrier) is a TCP coordination service whose sessions run a
// combining tree against remote arrivals, re-planning the tree degree
// from the measured arrival spread σ at episode boundaries — and, in
// elastic mode, admitting late joiners and absorbing departures at those
// same boundaries — and broadcasting poison causes in the wire form
// produced by
// EncodePoisonCause, so errors.As and errors.Is keep working on the far
// side of the network.
//
// At fleet scale the hierarchy gains a second level: leaf barrierds
// (internal/shardbarrier, barrierd -root ADDR) each combine their local
// clients and forward one aggregated arrival per episode to a root
// barrierd, which combines the shards and fans a single fleet-wide
// release — with its participant-weighted fleet σ and, for collectives,
// the deterministically folded global result — back down.
//
// # Fidelity note
//
// These barriers are real concurrent data structures, but Go's scheduler
// multiplexes goroutines over OS threads, so wall-clock measurements of
// them do not reproduce the paper's per-processor placement behaviour.
// The quantitative reproduction of the paper lives in the internal
// simulator packages and is driven by the cmd/experiments binary; this
// package is the production-facing library.
package softbarrier
