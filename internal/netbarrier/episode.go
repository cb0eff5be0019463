package netbarrier

import (
	"fmt"
	"math"

	"softbarrier"
	"softbarrier/internal/wire"
)

// ShardOutcome is what an upstream's release delivers back to a leaf
// session: the fleet-wide view of the episode the leaf forwarded.
type ShardOutcome struct {
	// Result is the globally folded collective payload (nil for plain
	// sessions). The bytes are valid only while the done callback runs;
	// the session consumes them into its release encoding before returning.
	Result []byte
	// Sigma is the fleet-wide σ estimate the root aggregated from the
	// shards' reports, seconds. 0 means not yet measured; the leaf then
	// falls back to its local estimate.
	Sigma float64
	// Err, when non-nil, is the poison cause: the root aborted the
	// episode (another shard died, the root's watchdog fired, the root is
	// shutting down). The leaf session must poison itself with it.
	Err error
}

// Upstream is the inter-shard hook that turns a server into a leaf of a
// hierarchical deployment: a session on a server with an Upstream does
// not release an episode when its local combining tree completes — that
// completion is one *aggregated arrival* of a fleet-wide episode.
// The session forwards it over its UpstreamLink and releases its local
// clients only when the upstream's release comes back, so the two-level
// hierarchy composes the same episode protocol at both levels.
// internal/shardbarrier provides the standard implementation (a link to
// the root barrierd speaking the wire protocol's shard frames).
type Upstream interface {
	// Open returns the root link of one session instance, which that
	// session owns from then on: nobody else calls it, and fail reaches
	// nobody else. Open must not block — the link connects on its first
	// Arrive. fail is how the link reports dying with no arrival
	// outstanding (the root went away between episodes, so there is no
	// done callback to deliver the cause through); it may be called from
	// any goroutine, at most once, and never after Close.
	Open(session string, fail func(cause error)) UpstreamLink
}

// UpstreamLink is one session's link to its upstream. Arrive is called at
// quiescent points of the session's episode protocol, never concurrently
// with itself; Close may come from any goroutine — a session is poisoned
// from wherever the failure was seen — including while the first Arrive
// is still connecting.
type UpstreamLink interface {
	// Arrive forwards the session's combined local arrival: localP local
	// participants, their measured spread and EWMA σ, and the locally
	// folded collective contribution (nil for plain sessions; data is only
	// valid during the call and must be consumed before returning). done
	// must be called exactly once — from any goroutine — when the upstream
	// releases or poisons the episode, or cannot be reached; the session
	// completes (or poisons) itself in that callback.
	Arrive(localP int, spread, sigma float64, data []byte, done func(ShardOutcome))
	// Close tears the link down. A nil cause is a graceful departure (the
	// local session retired cleanly; with an arrival outstanding it takes
	// effect after that episode's release); non-nil delivers the local
	// poison cause upstream so the rest of the fleet fails with the
	// original error, not a bare disconnect. It must be idempotent and
	// safe on a link that never forwarded.
	Close(cause error)
}

// upstreamClose tells the session's root link, if it has one, that the
// session is done: gracefully when cause is nil, or with the poison cause.
func (s *session) upstreamClose(cause error) {
	if s.up != nil {
		s.up.Close(cause)
	}
}

// arrive applies one member's arrival frame — Arrive, ArriveData, or a
// leaf shard's ShardArrive, which the connection handler has matched to
// the member's kind. A shard's frame also carries its local participant
// count and measured σ; the report is recorded on the connection for the
// fleet aggregate computed at release time.
func (s *session) arrive(c *srvConn, f *wire.Frame) {
	id, ok := s.checkArrival(c, f.Episode)
	if !ok {
		return
	}
	if c.shard {
		c.lastLocalP.Store(int64(f.P))
		c.lastSigma.Store(math.Float64bits(f.Sigma))
	}
	s.deposit(id, f.Data)
}

// checkArrival validates an arrival frame against the session's episode
// counter and the member's arrival window, advancing the latter. It runs
// on the member's reader goroutine; the frame's episode must be the
// session's current one (a client cannot legally race ahead — it has not
// seen the release that would let it — so a mismatch is a protocol
// violation, and a duplicate arrival would corrupt the tree's counters).
func (s *session) checkArrival(c *srvConn, episode uint64) (id int, ok bool) {
	id = int(c.id.Load())
	if id < 0 {
		s.poison(fmt.Errorf("netbarrier: protocol violation: pending client arrived before admission"))
		return 0, false
	}
	if cur := s.episode.Load(); episode != cur || episode < c.nextArrive.Load() {
		s.poison(fmt.Errorf("netbarrier: protocol violation: client %d arrived for episode %d (current %d)", id, episode, cur))
		return 0, false
	}
	c.nextArrive.Store(episode + 1)
	return id, true
}

// deposit is member id's arrival at the tree, with the payload its frame
// carried. A collective episode's release folds every member's deposit,
// so an arrival without one — a plain Arrive, a plain-barrier leaf inside
// a collective fleet, the proxy for an elastic leaver — contributes the
// op's identity, and mixed cohorts stay correct. A payload the session
// has no op for, or of the wrong width, is a protocol violation rather
// than a per-member error: the episode's fold is already corrupted by the
// time a retry could land.
func (s *session) deposit(id int, data []byte) {
	switch {
	case s.op == nil && len(data) == 0:
		s.tree.Arrive(id)
	case s.op == nil:
		s.poison(fmt.Errorf("netbarrier: protocol violation: member %d contributed %d bytes to a session with no collective op", id, len(data)))
	case len(data) == 0:
		s.tree.ArriveReduce(id, s.ident)
	case len(data) != s.op.Width:
		s.poison(fmt.Errorf("netbarrier: protocol violation: member %d contributed %d bytes, op %q wants %d", id, len(data), s.op.Name, s.op.Width))
	default:
		s.tree.ArriveReduce(id, data)
	}
}

// onEpisode is the Observer callback: it runs on the reader goroutine
// whose arrival completed the root, at the episode's quiescent point,
// after the barrier has folded the spread into σ and taken any cadence
// re-plan of its own. The episode's collective result is read where the
// barrier published it — the recorder's episode index is the session's,
// and the published buffer outlives any rebuild. A standalone server then
// completes the episode immediately, while a leaf session first forwards
// one aggregated arrival — carrying the local fold — over its root link
// and completes only when the upstream outcome (the fleet-wide release, or
// the fleet's poison cause) comes back. Episode serialization makes the
// suspended completion safe: no local member can arrive at the next
// episode until the release this completion will broadcast reaches it, so
// at most one upstream round-trip per session is ever outstanding.
func (s *session) onEpisode(st softbarrier.EpisodeStats) {
	result := s.tree.Reduced(st.Episode) // nil for a plain barrier session
	if s.up != nil && !s.dead.Load() {
		s.up.Arrive(s.tree.Participants(), st.Spread, s.tree.Sigma(), result,
			func(out ShardOutcome) { s.completeEpisode(st, out) })
		return
	}
	s.completeEpisode(st, ShardOutcome{Result: result})
}

// completeEpisode is the episode boundary, run once its outcome is known
// — locally immediate on a standalone server (inside the barrier's
// Observer, its gate not yet open), or deferred to the upstream release on
// a leaf (in the link's done callback, after the gate has opened); an
// upstream error poisons the session instead, delivering the fleet's cause
// to every local member. Both are quiescent points of the barrier, and
// this is the one instant at which the session changes shape: under the
// session mutex it collects the live members, lets an elastic session
// absorb its leavers and pending joiners, and advances the episode; then,
// outside the mutex, it fans the completing frame out.
//
// Holding the mutex from the membership walk to the episode advance is
// what makes a concurrent Leave safe: a leaver observes either the
// pre-boundary episode (and proxy-arrives into its slot, which the episode
// still needs) or the post-boundary membership (which no longer contains
// it). A fixed-membership session is the elastic session whose membership
// step never has anything to do; so is the elastic steady state, which is
// why both stay allocation-free.
func (s *session) completeEpisode(st softbarrier.EpisodeStats, out ShardOutcome) {
	s.mu.Lock()
	if s.retired {
		// Every local member arrived and then left without awaiting, and
		// the clean retirement ran while the episode was in flight
		// upstream; nobody is left to release (or to poison).
		s.mu.Unlock()
		return
	}
	if out.Err != nil {
		s.mu.Unlock()
		s.poison(out.Err)
		return
	}
	ep := st.Episode
	continuing := s.liveLocked(s.contBuf[:0])
	s.contBuf = continuing
	var admitted []*srvConn
	if s.elastic && (len(s.pending) > 0 || s.left > 0) {
		admitted = s.pending
		s.pending = nil
		if len(continuing)+len(admitted) == 0 {
			s.retired = true
			s.episode.Store(ep + 1)
			s.mu.Unlock()
			s.retireClean()
			return
		}
		s.reseatLocked(continuing, admitted, ep)
	}
	// Advance the episode before the first Release byte leaves: a client's
	// next Arrive frame is ordered after its Release, so every validation
	// against the episode counter sees the new value.
	s.episode.Store(ep + 1)
	s.mu.Unlock()

	if epoch := s.tree.Epoch(); epoch != s.epoch {
		s.epoch = epoch
		s.srv.opt.logf("session %s: episode %d epoch %d: p %d degree %d (measured sigma %.3gs, %d joined, %d continuing)",
			s.name, ep, epoch, s.tree.Participants(), s.tree.Degree(), s.tree.Sigma(), len(admitted), len(continuing))
	}
	if s.dead.Load() {
		return // poison raced in mid-episode; members already have the cause
	}
	s.fanOut(ep, s.releaseFrame(ep, st.Spread, out, continuing), continuing, admitted)
}
