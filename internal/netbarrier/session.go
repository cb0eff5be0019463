package netbarrier

import (
	"fmt"
	"sync"
	"sync/atomic"

	"softbarrier"
	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
)

// arrivalTree is the server-side arrival structure: the subset of the
// softbarrier tree barriers a session drives. Sessions only ever call
// Arrive — remote clients wait on their sockets, not on the in-process
// gate — so the release path degenerates to the Observer callback, which
// fires at the episode's quiescent point, before any in-process release.
// A member's next Arrive can therefore reach the tree before its gate has
// opened; the tree holds such an arrival until it has.
type arrivalTree interface {
	Arrive(id int)
	ArriveReduce(id int, in []byte) error
	Reduced(episode uint64) []byte
	LagsInto(episode uint64, dst []float64) []float64
	Poison(err error)
	Err() error
	Close()
	Degree() int
	Arrivals() []uint64
}

// coreBox wraps the interface so the current core can live in an
// atomic.Pointer (which needs a concrete element type).
type coreBox struct{ b arrivalTree }

// observerFunc adapts a function to softbarrier.Observer.
type observerFunc func(softbarrier.EpisodeStats)

func (f observerFunc) Episode(st softbarrier.EpisodeStats) { f(st) }

// session is one named barrier cohort: its members, an in-process
// combining tree collecting their arrivals, and the shared reconfiguration
// controller (internal/reconfig) that re-derives the tree configuration —
// degree, and in elastic mode membership — from the measured arrival
// spread. This file holds its state, its planner and placement hooks and
// its stats; membership.go who is in it, episode.go how an arrival becomes
// a completed episode, fanout.go what leaves on the members' sockets.
//
// Concurrency design. Each member's socket is read by its own goroutine,
// which calls core.Arrive directly — so the degree-d combining tree is
// doing real work: at most degree+1 reader goroutines contend on any one
// counter, exactly as in the in-process case. The member whose arrival
// completes the root runs the Observer callback at the episode's
// quiescent point: every arrival of the episode is in, and no client can
// send its next Arrive until the Release frame this callback is about to
// write reaches it. That quiescence is what makes every reconfiguration a
// plain pointer swap: the callback asks the controller for a Plan, builds
// a fresh tree, stores it, and only then broadcasts the release, so every
// subsequent arrival lands in the new tree.
//
// Elastic sessions (Options.Elastic) additionally treat membership as part
// of the epoch: a Leave drops the member at the next boundary (with the
// session proxy-arriving for a leaver that had not arrived yet, so the
// in-flight episode still completes), and a join against a full session
// parks the connection on the pending list until the boundary admits it
// into the next epoch — late joiners are welcomed, not refused. Member ids
// are re-assigned densely at each boundary; a client learns its id from
// the JoinResp and must not assume it is stable across epochs server-side
// (the client-visible id is only used in server diagnostics).
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

	profile softbarrier.Profile  // template for the planner; P and Sigma are live
	est     rt.SigmaEstimator    // EWMA of per-episode arrival spread
	ctrl    *reconfig.Controller // epoch state: degree, membership, placement
	op      *softbarrier.Op      // collective op, nil for a plain barrier session
	ident   []byte               // op identity, proxy-contributed for plain/leaving members

	// Predictive straggler placement (Options.Placement). All four fields
	// are touched only by the releasing member's goroutine, at episode
	// boundaries: place consumes the episode's lags, curOrder is the
	// policy's latest opinion, builtOrder the order the current core was
	// built with.
	place      softbarrier.PlacementPolicy
	lagBuf     []float64
	curOrder   []int
	builtOrder []int

	core    atomic.Pointer[coreBox]
	episode atomic.Uint64 // current episode index; advanced by the releaser
	dead    atomic.Bool   // poison broadcast already sent

	// Release fan-out scratch, all releaser-only (successive releasers are
	// ordered through the episode/core atomics). relScratch is the encoded
	// release frame, double-buffered by episode parity; relPending[k]
	// counts fan-out writes still borrowing relScratch[k] — nonzero only
	// while a socket is stalled, in which case the next same-parity
	// broadcast falls back to a fresh allocation instead of reusing the
	// buffer. contBuf is the boundary's live-member scratch; capBuf holds
	// the episode's captured collective result.
	relScratch [2][]byte
	relPending [2]atomic.Int64
	contBuf    []*srvConn
	capBuf     []byte

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
		profile: softbarrier.Profile{
			P:        p,
			Sigma:    srv.opt.InitialSigma,
			Tc:       srv.opt.Tc,
			Systemic: srv.opt.Dynamic,
		},
	}
	if op := srv.opt.Op; op != nil {
		s.op = op
		s.ident = make([]byte, op.Width)
		if op.Identity != nil {
			copy(s.ident, op.Identity)
		}
	}
	if f := srv.opt.Placement; f != nil {
		s.place = f()
	}
	s.est.Init(rt.DefaultSigmaWeight)
	s.fleetEst.Init(rt.DefaultSigmaWeight)
	degree, dynamic := softbarrier.RecommendConfig(s.profile)
	s.ctrl = reconfig.New(
		reconfig.Config{
			ReplanEvery:  uint64(srv.opt.ReplanEvery),
			InitialSigma: srv.opt.InitialSigma,
		},
		&s.est,
		s.recommend,
		reconfig.Plan{P: p, Degree: degree, Dynamic: dynamic},
	)
	s.core.Store(&coreBox{s.buildCore(s.ctrl.Current())})
	if up := srv.opt.Upstream; up != nil {
		// Open dials nothing (the first Arrive does). The failure hook is
		// this instance's poison: once the session is dead it is a no-op,
		// so a link failing late cannot reach whoever holds the name next.
		s.up = up.Open(name, s.poison)
	}
	return s
}

// recommend is the controller's Recommender: the session's planner profile
// evaluated at the epoch's membership and the measured σ. It runs on the
// releaser's goroutine every ReplanEvery episodes, so it uses the
// allocation-free RecommendConfig path.
func (s *session) recommend(p int, sigma float64) (degree int, dynamic bool) {
	prof := s.profile
	prof.P = p
	prof.Sigma = sigma
	return softbarrier.RecommendConfig(prof)
}

// buildCore constructs the arrival tree an epoch plan describes. With the
// server's Dynamic option the profile is systemic, so the planner selects
// the dynamic-placement barrier and consistently slow clients migrate
// toward the root — placement knowledge is discarded on rebuild, which the
// paper's own adaptation proposal accepts (rebuilds are rare once σ
// converges).
func (s *session) buildCore(plan reconfig.Plan) arrivalTree {
	opts := []softbarrier.Option{
		softbarrier.WithObserver(observerFunc(s.onEpisode)),
		softbarrier.WithPoisonNotify(s.onPoison),
	}
	if d := s.srv.opt.Watchdog; d > 0 {
		opts = append(opts, softbarrier.WithWatchdog(d))
	}
	if s.op != nil {
		opts = append(opts, softbarrier.WithCollective(*s.op))
	}
	s.builtOrder = nil
	if s.place != nil && len(s.curOrder) == plan.P {
		// The policy's predicted-straggler order relabels the tree's
		// slots laggiest-first-shallowest; membership changes invalidate
		// a stale order (the length mismatch drops it here).
		opts = append(opts, softbarrier.WithPlacement(s.curOrder))
		s.builtOrder = s.curOrder
	}
	if plan.Dynamic {
		return softbarrier.NewDynamic(plan.P, plan.Degree, opts...)
	}
	if s.place != nil {
		// A placement policy needs depth diversity to express a choice;
		// classic trees put every participant at the same leaf depth, so
		// placed sessions run the MCS shape.
		return softbarrier.NewMCSTree(plan.P, plan.Degree, opts...)
	}
	return softbarrier.NewCombiningTree(plan.P, plan.Degree, opts...)
}

// observePlacement feeds the completed episode's per-participant lags to
// the placement policy and refreshes curOrder with its latest opinion.
// Releaser-only, at the quiescent point (the lag buffer parity slot is
// stable there). Order() is consumed exactly once per episode: hysteresis
// policies record what they emit.
func (s *session) observePlacement(box *coreBox, episode uint64) {
	if s.place == nil {
		return
	}
	if lags := box.b.LagsInto(episode, s.lagBuf); len(lags) > 0 {
		s.lagBuf = lags
		s.place.Observe(lags)
	}
	if order := s.place.Order(); order != nil {
		s.curOrder = order
	}
}

// placementDue reports, on the replan cadence, whether the policy's
// predicted-straggler order differs from the one the current core was
// built with — a placement-only rebuild is then due. Releaser-only.
func (s *session) placementDue() bool {
	if s.place == nil {
		return false
	}
	n := s.ctrl.Episodes()
	if n == 0 || n%s.ctrl.Config().ReplanEvery != 0 {
		return false
	}
	p := s.ctrl.Current().P
	if len(s.curOrder) != p {
		return false
	}
	return !ordersEqual(s.curOrder, s.builtOrder, p)
}

// ordersEqual compares placement orders, nil meaning the natural
// ascending-id order.
func ordersEqual(a, b []int, p int) bool {
	idx := func(o []int, k int) int {
		if o == nil {
			return k
		}
		return o[k]
	}
	for k := 0; k < p; k++ {
		if idx(a, k) != idx(b, k) {
			return false
		}
	}
	return true
}

// degree returns the current tree degree.
func (s *session) degree() int { return s.core.Load().b.Degree() }

// p returns the current epoch's membership count.
func (s *session) p() int { return s.ctrl.Current().P }

// stats snapshots the session for Server.SessionStats.
func (s *session) stats() SessionStats {
	s.mu.Lock()
	live := len(s.liveLocked(nil))
	pending := len(s.pending)
	s.mu.Unlock()
	out := SessionStats{
		Name:     s.name,
		P:        s.p(),
		Episode:  s.episode.Load(),
		Members:  live,
		Pending:  pending,
		Shard:    s.shard,
		FleetP:   int(s.fleetP.Load()),
		Reconfig: s.ctrl.Stats(),
	}
	// Fixed-tree cores expose their per-participant depths (the tree is
	// immutable, so this is safe from the stats goroutine); dynamic cores
	// migrate placement per episode and stay nil.
	if d, ok := s.core.Load().b.(interface{ Depths() []int }); ok {
		out.Depths = d.Depths()
	}
	return out
}

// unreachable poisons the session on behalf of a member whose socket
// could not be written: it will never see a release, so never arrive
// again.
func (s *session) unreachable(c *srvConn, err error) {
	s.poison(fmt.Errorf("netbarrier: client %d unreachable: %w", c.id.Load(), err))
}

// poison fails the session with the given cause. The notify hook on the
// current core performs the broadcast (onPoison, fanout.go).
func (s *session) poison(err error) { s.core.Load().b.Poison(err) }
