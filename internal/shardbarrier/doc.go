// Package shardbarrier scales barrierd past one process: a two-level
// combining hierarchy in which leaf barrierds each combine their local
// clients through the ordinary server-side tree, then synchronize, and
// reduce collective payloads, through an inter-shard root over the wire
// protocol's shard frames. Leaf sits behind netbarrier.Options.Upstream;
// StartFleet wires a root and its leaves in one process.
//
// DESIGN.md §5.12 describes the fleet: the link, σ aggregation, fold
// order, the one fleet shape and poison in both directions.
package shardbarrier
