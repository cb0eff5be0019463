package netbarrier

import (
	"fmt"
	"math"
	"sync"

	"softbarrier"
	"softbarrier/internal/wire"
)

// releaseFrame builds the frame completing episode ep, under the tree's
// post-boundary configuration, for the members in live: a Release for a
// plain session, a Result carrying the folded contributions for a
// collective one, or — for an inter-shard session — a ShardRelease
// carrying both the fleet-wide result and the fleet aggregate (ΣP and the
// σ folded across the shards' reports), which each leaf fans back out to
// its local clients. The σ a leaf's release advertises is the fleet-wide
// estimate the root reported with this outcome when there is one, else
// the session's own. The fleet-wide value is the root's EWMA of the
// P-weighted mean of the shards' σ reports (fleetStats). Clients plan
// nothing with it: they only display it.
func (s *session) releaseFrame(ep uint64, spread float64, out ShardOutcome, live []*srvConn) wire.Frame {
	f := wire.Frame{
		Type: wire.TypeRelease, Episode: ep,
		Degree: s.tree.Degree(), P: s.tree.Participants(), Epoch: s.tree.Epoch(),
		Spread: spread, Sigma: out.Sigma,
	}
	switch {
	case s.shard:
		f.Type = wire.TypeShardRelease
		f.FleetP, f.Sigma = s.fleetStats(live)
		f.Data = out.Result
		return f
	case s.op != nil:
		f.Type = wire.TypeResult
		f.Data = out.Result
	}
	if f.Sigma <= 0 {
		f.Sigma = s.tree.Sigma()
	}
	return f
}

// fleetStats folds the live shards' latest localP/σ reports into the
// session's fleet aggregate: fleetP is the sum of local participant
// counts, and the P-weighted mean of the shards' EWMA σ reports is folded
// into the session's own fleet EWMA (reusing the runtime estimator, so a
// shard re-planning locally moves the fleet estimate smoothly rather than
// stepwise). Releaser-only, at the quiescent point.
func (s *session) fleetStats(live []*srvConn) (fleetP int, fleetSigma float64) {
	var wsum float64
	for _, m := range live {
		p := int(m.lastLocalP.Load())
		fleetP += p
		wsum += float64(p) * math.Float64frombits(m.lastSigma.Load())
	}
	if fleetP > 0 {
		s.fleetEst.Observe(wsum / float64(fleetP))
	}
	s.fleetP.Store(int64(fleetP))
	return fleetP, s.fleetEst.Sigma()
}

// fanOut is the release fan-out: it answers the joiners this boundary
// admitted (elastic sessions; each JoinResp is its own small encoding) and
// sends the episode-completing frame — encoded once, into the session's
// one release buffer, so a steady-state episode encodes with zero
// allocations — to every continuing member. The releaser writes each
// socket itself (srvConn.send): with the server idle behind the last
// arrival, the synchronization delay is this loop, and a write per member
// is all it holds — no goroutine is woken, no timer armed, nothing
// allocated.
//
// One stalled socket cannot delay the rest: send never blocks, handing
// what the socket will not take to a goroutine of its own, whose write
// still times out against the server's write deadline and poisons the
// session then. That goroutine writes its own copy, so the release buffer
// is free again as soon as send returns. A write error met inline is kept
// until every other member has its frame, and poisons once, after the
// loop — poisoning blocks until the cause frames are written, which in the
// middle of the loop is exactly the wait behind a bad socket the loop must
// not have.
func (s *session) fanOut(ep uint64, f wire.Frame, continuing, admitted []*srvConn) {
	var failed *srvConn
	var failure error
	send := func(m *srvConn, buf []byte) {
		if err := m.send(buf, s); err != nil && failed == nil {
			failed, failure = m, err
		}
	}
	for _, m := range admitted {
		buf, err := wire.AppendFrame(nil, wire.Frame{
			Type: wire.TypeJoinResp, ID: int(m.id.Load()), P: f.P,
			Degree: f.Degree, Episode: ep + 1,
		})
		if err != nil {
			s.poison(fmt.Errorf("netbarrier: internal: unencodable frame: %w", err))
			return
		}
		send(m, buf)
	}
	buf, err := wire.AppendFrame(s.rel[:0], f)
	if err != nil {
		s.poison(fmt.Errorf("netbarrier: internal: unencodable frame: %w", err))
		return
	}
	s.rel = buf
	for _, m := range continuing {
		send(m, buf)
	}
	if failed != nil {
		s.unreachable(failed, failure)
	}
}

// onPoison is the WithPoisonNotify hook: whatever poisoned the tree —
// watchdog stall, client disconnect, protocol violation, server shutdown,
// the root link failing — lands here exactly once, and every member
// socket receives the wire-encoded cause instead of a Release; pending
// joiners get a refusing JoinResp, and a refusal that cannot be written is
// logged and the connection closed, so the client fails fast instead of
// hanging until its join timeout. Sends run concurrently — one stalled
// socket costs one write deadline, not a deadline per member — but the
// hook still blocks until every send finishes: Server.Close poisons
// sessions and then immediately closes every connection, so the cause
// frames must be on the wire before this returns.
//
// The session gives up its name before the first cause frame leaves, so a
// member that reads the cause and rejoins the name at once opens a fresh
// session instead of being refused by this dying one.
func (s *session) onPoison(err error) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	members := s.liveLocked(nil)
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
	ep, arrived := s.episode.Load(), []int64{} // from member records: an unwatched tree.Arrivals races
	for _, m := range members {
		if m.nextArrive.Load() > ep {
			arrived = append(arrived, m.id.Load())
		}
	}
	s.srv.opt.logf("session %s: poisoned at episode %d: %v (arrived: %v)", s.name, ep, err, arrived)
	s.upstreamClose(err)
	s.srv.retire(s)

	wt := s.srv.opt.writeTimeout()
	var wg sync.WaitGroup
	if buf, encErr := wire.AppendFrame(nil, wire.Frame{Type: wire.TypePoison, Cause: softbarrier.EncodePoisonCause(nil, err)}); encErr == nil {
		for _, m := range members {
			wg.Add(1)
			go func(m *srvConn) {
				defer wg.Done()
				m.sendWait(buf, wt) // failure ignored: that member is already gone
			}(m)
		}
	}
	if len(pending) > 0 {
		buf, encErr := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeJoinResp, Err: fmt.Sprintf("session poisoned: %v", err)})
		for _, m := range pending {
			wg.Add(1)
			go func(m *srvConn) {
				defer wg.Done()
				sendErr := encErr
				if sendErr == nil {
					sendErr = m.sendWait(buf, wt)
				}
				if sendErr != nil {
					s.srv.opt.logf("session %s: failed to refuse pending client %s: %v", s.name, m.conn.RemoteAddr(), sendErr)
					m.conn.Close()
				}
			}(m)
		}
	}
	wg.Wait()
	s.tree.Close()
}
