// Package shardbarrier scales barrierd past one process: a two-level
// combining hierarchy in which leaf barrierd shards each combine their
// local clients through the ordinary server-side tree, then synchronize —
// and reduce collective payloads — through an inter-shard root speaking
// the wire protocol's shard frames (ShardJoin/ShardArrive/ShardRelease).
//
// The shape mirrors the paper's core argument at a second level: just as
// the in-process tree's degree is chosen from the arrival population's
// size and imbalance, the fleet splits a large population into shards
// whose local trees absorb local imbalance, leaving the root a P-of-shards
// barrier over one aggregated arrival per shard per episode. Each leaf
// forwards its locally folded contribution, local participant count, and
// measured σ; the root folds contributions in ascending shard id (so
// non-commutative collectives stay deterministic fleet-wide), aggregates
// the shards' σ reports into a fleet estimate (P-weighted EWMA), and both
// levels re-plan their trees independently at their own quiescent release
// points.
//
// Leaf sits behind netbarrier.Options.Upstream, where all it does is open
// links: each leaf session owns the root link it opened, and the leaf
// keeps no table of them. A leaf session's episode does not complete when
// its local tree fills — that completion is one aggregated arrival of the
// fleet episode, forwarded over the session's link; the local release
// fans out only when the root's ShardRelease (fleet result, fleet P,
// fleet σ) comes back. Failure flows
// both ways through the existing poison-cause machinery: a leaf-side
// poison travels up with its cause intact and fails the fleet session,
// and a root-side poison (another shard died, the root shut down) comes
// down the link and poisons the local cohort, so every client on every
// shard learns the original error.
//
// Session placement uses a consistent-hash Ring over the leaf addresses:
// clients derive their leaf from the session name with no coordination,
// and sessions that span a subset of the fleet (FleetOptions.Span) get
// their shard ids from the ring's placement order. Fleet wires a root
// plus N leaves on loopback for tests and single-host deployments;
// `barrierd` (a root) and `barrierd -root ADDR` (each leaf) run the same
// wiring across machines.
package shardbarrier
