// Package netbarrier extends the softbarrier design space across a
// network: a barrier coordination service (Server, deployed as the
// cmd/barrierd daemon) that clients join to synchronize named episode
// cohorts, each session running one softbarrier.ReconfigurableBarrier
// server-side, and the Client that joins it.
//
// DESIGN.md describes the mechanisms: §5.7 the session, its episode
// boundary, elastic membership and poison over the wire; §5.11 the
// allocation-free frame path and the release fan-out; §5.12 the leaf side
// of a fleet (Options.Upstream). The frames are internal/wire's.
package netbarrier
