package netbarrier

import "fmt"

// liveLocked appends the session's live members — joined, not departed —
// to dst in id order. It is the one membership walk: the boundary, the
// poison fan-out, stats and leave all see the cohort through it. Caller
// holds s.mu.
func (s *session) liveLocked(dst []*srvConn) []*srvConn {
	for _, m := range s.members {
		if m != nil && !m.gone {
			dst = append(dst, m)
		}
	}
	return dst
}

// join claims a member slot. want ≥ 0 requests a specific id; -1 takes
// the first free slot. It returns the assigned id or a refusal message;
// in an elastic session a join against a full cohort is deferred instead
// of refused (the connection parks on the pending list and is admitted at
// the next episode boundary), and the requested id and participant count
// are advisory — membership is the server's to manage.
func (s *session) join(c *srvConn, p, want int) (id int, refusal string, deferred bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired || s.dead.Load() {
		return 0, "session is shutting down", false
	}
	if c.shard != s.shard {
		// The session's participant kind is fixed by its first joiner:
		// aggregated shard arrivals and per-client arrivals carry different
		// frames and release shapes, so mixing them would corrupt both.
		if s.shard {
			return 0, "session is inter-shard; clients must join through a leaf", false
		}
		return 0, "session has client members; shards cannot join it", false
	}
	if s.elastic {
		for i, m := range s.members {
			if m == nil {
				c.id.Store(int64(i))
				s.members[i] = c
				return i, "", false
			}
		}
		s.pending = append(s.pending, c)
		return 0, "", true
	}
	switch {
	case p != len(s.members):
		return 0, fmt.Sprintf("session has %d participants, not %d", len(s.members), p), false
	case want >= len(s.members):
		return 0, fmt.Sprintf("id %d out of range for %d participants", want, len(s.members)), false
	case want >= 0:
		if s.members[want] != nil {
			return 0, fmt.Sprintf("id %d already taken", want), false
		}
		id = want
	default:
		id = -1
		for i, m := range s.members {
			if m == nil {
				id = i
				break
			}
		}
		if id < 0 {
			return 0, "session is full", false
		}
	}
	c.id.Store(int64(id))
	s.members[id] = c
	return id, "", false
}

// reseatLocked is the elastic boundary's membership step: the cohort
// becomes the continuing members followed by the joiners this boundary
// admits, ids re-assigned densely, and the barrier Resized to a changed
// count — legal here because the boundary is a quiescent point of the
// barrier in both contexts it runs in (completeEpisode). Caller holds
// s.mu, at the boundary of episode ep, with at least one member on the two
// lists.
func (s *session) reseatLocked(continuing, admitted []*srvConn, ep uint64) {
	// The membership slice must not alias the boundary's reusable scratch:
	// other goroutines read s.members under the mutex while the next
	// boundary rewrites the scratch.
	live := make([]*srvConn, 0, len(continuing)+len(admitted))
	live = append(append(live, continuing...), admitted...)
	for i, m := range live {
		m.id.Store(int64(i))
	}
	for _, m := range admitted {
		m.nextArrive.Store(ep + 1) // first legal arrival is the new epoch's episode
	}
	s.members = live
	s.left = 0
	if n := len(live); n != s.tree.Participants() {
		s.tree.Resize(n) // n ≥ 1 here, so it cannot fail
	}
}

// leave processes a graceful departure: the member will not arrive again,
// and its connection closing is no longer a failure. The session retires
// once nobody is left, live or pending.
//
// In a fixed-membership session a member that leaves while others keep
// arriving causes a stall, which the watchdog converts into a StallError
// naming it — departure there is cooperative, not transparent. An elastic
// session instead absorbs the departure at the next episode boundary: if
// the leaver had not yet arrived at the in-flight episode, the session
// arrives on its behalf (the episode cannot complete without that slot,
// and the leaver will never fill it), and the boundary's membership step
// then drops it from the next epoch. A fixed session is the case with no
// proxy and no pending list.
func (s *session) leave(c *srvConn) {
	s.mu.Lock()
	c.leftOK = true
	if c.id.Load() < 0 { // pending, never admitted: just forget it
		s.dropPendingLocked(c)
		s.mu.Unlock()
		return
	}
	c.gone = true
	s.left++
	alive := !s.dead.Load() // a poisoned session completes nothing and has already given up its name
	needProxy := alive && s.elastic && c.nextArrive.Load() <= s.episode.Load()
	done := alive && !needProxy && len(s.pending) == 0 && len(s.liveLocked(nil)) == 0
	if done {
		s.retired = true
	}
	s.mu.Unlock()
	switch {
	case needProxy:
		// The proxy arrival may complete the episode, whose boundary (or,
		// if everyone is gone, retirement) runs inside this call. It
		// carries no payload, so a collective session folds the op's
		// identity on the leaver's behalf and the cohort's result is
		// unchanged by its absence.
		s.deposit(int(c.id.Load()), nil)
	case done:
		s.retireClean()
	}
}

// retireClean ends a session nobody is left in: the tree's watchdog
// stops, the root link (on a leaf) departs gracefully, and the name
// becomes free. The caller has set s.retired under s.mu.
func (s *session) retireClean() {
	s.tree.Close()
	s.upstreamClose(nil)
	s.srv.retire(s)
}

// dropPendingLocked removes c from the pending list. Caller holds s.mu.
func (s *session) dropPendingLocked(c *srvConn) {
	for i, m := range s.pending {
		if m == c {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// disconnect processes a member's reader terminating with err. A member
// that already left (or a session already dead, or a pending joiner that
// dropped before admission) just cleans up; anything else poisons the
// session — the member cannot arrive anymore, and poisoning is how every
// other member learns that before the watchdog deadline, let alone
// forever.
func (s *session) disconnect(c *srvConn, err error) {
	s.mu.Lock()
	if c.id.Load() < 0 { // pending, never admitted
		s.dropPendingLocked(c)
		s.mu.Unlock()
		return
	}
	wasGone := c.gone || c.leftOK
	c.gone = true
	s.mu.Unlock()
	if wasGone || s.dead.Load() {
		return
	}
	// Name shards as shards: a leaf process dying often reaches the root
	// as a bare EOF (the leaf's graceful poison frame races its own
	// process exit), and the cause fans out fleet-wide, so it must say
	// which shard died — "client 0" would point at an innocent local id.
	kind := "client"
	if c.shard {
		kind = "shard"
	}
	s.poison(fmt.Errorf("netbarrier: %s %d disconnected mid-session: %w", kind, c.id.Load(), err))
}
