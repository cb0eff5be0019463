// Package netbarrier extends the softbarrier design space across a
// network: a barrier coordination service (Server, deployed as the
// cmd/barrierd daemon) that clients join over TCP to synchronize named
// episode cohorts, with the paper's machinery running server-side.
//
// The paper's core result — the optimal combining-tree degree grows with
// the arrival-time spread σ — matters most in exactly this setting, where
// arrival skew is large (network jitter stacks on load imbalance) and
// shifts over time. Each session therefore runs on one
// softbarrier.ReconfigurableBarrier, built with the session and never
// replaced: the barrier measures the spread of the remote arrivals,
// re-derives the degree σ justifies, applies a placement policy
// (Options.Placement) and swaps epochs at the release, exactly as it does
// in process (DESIGN §5.8). What the session adds is membership: at its
// episode boundary an elastic session absorbs leavers and pending
// joiners, re-assigns ids densely and Resizes the barrier. That boundary
// runs in one of two contexts, both quiescent points of the barrier: the
// barrier's Observer, before its gate opens (a standalone server), or the
// root link's done callback, after it has (a leaf). Sharing the barrier's
// loop has edges, listed in DESIGN §5.7: the cadence re-plan precedes the
// membership step, so one boundary can commit two epochs; the placement
// policy's Order is consumed once per cadence; arrival counters and the
// watchdog live as long as the session.
//
// Failure semantics are the PR-3 poison machinery end to end. Whatever
// kills an episode — a client disconnecting mid-session, a stall caught
// by the WithWatchdog detector, a protocol violation, server shutdown —
// poisons the session's tree, and the WithPoisonNotify hook broadcasts
// the softbarrier.EncodePoisonCause wire form of the cause to every
// member socket. Remote waiters therefore fail exactly like local ones:
// errors.As recovers the *StallError naming who never arrived, instead of
// the client hanging on a dead episode.
//
// The wire protocol is eleven length-prefixed binary frame types (see
// internal/wire/frame.go). A connection has one goroutine, its reader.
// The release fan-out encodes each frame once, and the reader whose
// arrival completed the episode writes it to every member socket itself,
// through the connection's non-blocking write (wire.TryWriter): under
// load imbalance the last arrival finds the server idle, so this loop is
// the synchronization delay, and it wakes nothing and allocates nothing.
// A socket that will not take a whole frame keeps its write lock — held
// from the inline attempt to the end of the remainder, so frames never
// interleave — and a one-off goroutine finishes the frame under
// Options.WriteTimeout; a member that cannot be written by then poisons
// the session, and delays nobody else meanwhile. Handshake frames
// (JoinReq, ShardJoin, JoinResp) carry a protocol version byte, so a
// mixed-revision deployment is refused at join time with an error naming
// both versions instead of failing later with a garbled frame.
//
// The ShardJoin/ShardArrive/ShardRelease frames carry the hierarchical
// deployment (internal/shardbarrier): a leaf server combines its local
// clients through its own tree, then — over the root link each session
// opens for itself through Options.Upstream, and alone owns — forwards
// one aggregated arrival per episode to a root barrierd, which combines
// the shards exactly like a session of clients and fans one release back
// down. The root is this same Server; shard sessions differ only in that
// their arrivals carry pre-folded partial results and their releases
// carry the fleet-wide fold, σ, and participant count.
package netbarrier
