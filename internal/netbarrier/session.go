package netbarrier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"softbarrier"
	rt "softbarrier/internal/runtime"
)

// observerFunc adapts a function to softbarrier.Observer.
type observerFunc func(softbarrier.EpisodeStats)

func (f observerFunc) Episode(st softbarrier.EpisodeStats) { f(st) }

// session is one named barrier cohort: its members, and the one
// softbarrier.ReconfigurableBarrier that collects their arrivals for the
// session's whole life. The barrier owns everything DESIGN §5.8 describes
// — σ, the degree re-plan, the placement policy, the epoch swap, the
// watchdog; the session owns who is a member. This file holds its state
// and stats; membership.go who is in it, episode.go how an arrival becomes
// a completed episode, fanout.go what leaves on the members' sockets.
//
// Concurrency design. Each member's socket is read by its own goroutine,
// which calls tree.Arrive directly — so the degree-d combining tree is
// doing real work: at most degree+1 reader goroutines contend on any one
// counter, exactly as in process. Members wait on their sockets, not on
// the gate, so the barrier's release path degenerates to the Observer
// callback, on the member whose arrival completed the root, at the
// episode's quiescent point: every arrival is in, and no client can send
// its next Arrive until the Release frame this callback is about to write
// reaches it. (That Arrive can reach the tree before its gate has opened;
// the tree holds it until it has.)
//
// Elastic sessions (Options.Elastic) treat membership as part of the
// epoch: a Leave drops the member at the next boundary (the session
// proxy-arriving for a leaver that had not arrived yet, so the in-flight
// episode still completes), and a join against a full session parks on
// the pending list until the boundary admits it. The boundary re-assigns
// ids densely and Resizes the barrier. The barrier only ever sees slots
// 0..P-1, all of which arrived in the completing episode (leavers by
// proxy), so a connection moving to a lower slot finds it ready, and a
// slot past the old P is held until the admitting release like any grown
// participant. A client learns its id from the JoinResp and must not
// assume it is stable across epochs (it is only used in diagnostics).
type session struct {
	name    string
	srv     *Server
	elastic bool

	// shard marks an inter-shard session: every member is a leaf barrierd
	// forwarding one aggregated arrival per episode (TypeShardArrive)
	// rather than a client. The kind is fixed by the session's first
	// joiner; mixing shard and client members in one session is refused.
	// Shard sessions release with TypeShardRelease, carrying the fleet-wide
	// participant count and the σ aggregated across the shards' reports.
	shard    bool
	fleetEst rt.SigmaEstimator // EWMA over the P-weighted mean of shard σ reports
	fleetP   atomic.Int64      // Σ live shards' local P, as of the last release

	// up is this session's own link to the root, nil unless the server is
	// a leaf (Options.Upstream). It is opened with the session and never
	// reassigned, so a session can only ever close, or be failed by, the
	// link it opened itself.
	up UpstreamLink

	tree  *softbarrier.ReconfigurableBarrier // built once, never replaced
	op    *softbarrier.Op                    // collective op, nil for a plain barrier session
	ident []byte                             // op identity, proxy-contributed for plain/leaving members

	episode atomic.Uint64 // current episode index; advanced by the releaser
	dead    atomic.Bool   // poison broadcast already sent

	// Release fan-out scratch, all releaser-only (successive releasers are
	// ordered through the episode atomic and the tree). rel is the encoded
	// release frame, free again once every send has returned: a write that
	// outlives its send works on its own copy. contBuf is the boundary's
	// live-member scratch; epoch is the epoch of the last release, for the
	// re-plan log line.
	rel     []byte
	contBuf []*srvConn
	epoch   uint64

	mu      sync.Mutex
	members []*srvConn // slot per id; nil = not yet joined (formation only)
	pending []*srvConn // elastic: connections awaiting admission at a boundary
	left    int        // graceful leavers since the last boundary
	retired bool
}

func newSession(srv *Server, name string, p int, shard bool) *session {
	s := &session{
		name:    name,
		srv:     srv,
		elastic: srv.opt.Elastic,
		shard:   shard,
		members: make([]*srvConn, p),
	}
	opt := &srv.opt
	opts := []softbarrier.Option{
		softbarrier.WithObserver(observerFunc(s.onEpisode)),
		softbarrier.WithPoisonNotify(s.onPoison),
		softbarrier.WithWatchdog(opt.Watchdog), // 0 disables it
	}
	if op := opt.Op; op != nil {
		s.op = op
		s.ident = make([]byte, op.Width)
		if op.Identity != nil {
			copy(s.ident, op.Identity)
		}
		opts = append(opts, softbarrier.WithCollective(*op))
	}
	if opt.Placement != nil {
		opts = append(opts, softbarrier.WithPlacementPolicy(opt.Placement()))
	}
	s.fleetEst.Init(rt.DefaultSigmaWeight)
	degree, _ := softbarrier.RecommendConfig(softbarrier.Profile{P: p, Sigma: opt.InitialSigma, Tc: opt.Tc})
	s.tree = softbarrier.NewReconfigurable(p, softbarrier.ReconfigConfig{
		ReplanEvery:   opt.ReplanEvery,
		Tc:            opt.Tc,
		InitialSigma:  opt.InitialSigma,
		InitialDegree: degree,
	}, opts...)
	if up := opt.Upstream; up != nil {
		// Open dials nothing (the first Arrive does). The failure hook is
		// this instance's poison: once the session is dead it is a no-op,
		// so a link failing late cannot reach whoever holds the name next.
		s.up = up.Open(name, s.poison)
	}
	return s
}

// stats snapshots the session for Server.SessionStats.
func (s *session) stats() SessionStats {
	s.mu.Lock()
	live := len(s.liveLocked(nil))
	pending := len(s.pending)
	s.mu.Unlock()
	return SessionStats{
		Name:     s.name,
		P:        s.tree.Participants(),
		Episode:  s.episode.Load(),
		Members:  live,
		Pending:  pending,
		Shard:    s.shard,
		FleetP:   int(s.fleetP.Load()),
		Reconfig: s.tree.ReconfigStats(),
		Depths:   s.tree.Depths(),
	}
}

// unreachable poisons the session on behalf of a member whose socket
// could not be written: it will never see a release, so never arrive
// again.
func (s *session) unreachable(c *srvConn, err error) {
	s.poison(fmt.Errorf("netbarrier: client %d unreachable: %w", c.id.Load(), err))
}

// poison fails the session with the given cause. The tree's notify hook
// performs the broadcast (onPoison, fanout.go).
func (s *session) poison(err error) { s.tree.Poison(err) }
