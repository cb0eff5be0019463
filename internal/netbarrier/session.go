package netbarrier

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"softbarrier"
	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/wire"
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
// spread.
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
	// buffer. bcast and contBuf are member-collection scratch; capBuf holds
	// the episode's captured collective result.
	relScratch [2][]byte
	relPending [2]atomic.Int64
	bcast      []*srvConn
	contBuf    []*srvConn
	capBuf     []byte

	mu      sync.Mutex
	members []*srvConn // slot per id; nil = not yet joined (formation only)
	pending []*srvConn // elastic: connections awaiting admission at a boundary
	joined  int
	left    int
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
	live := 0
	for _, m := range s.members {
		if m != nil && !m.gone {
			live++
		}
	}
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

// arrive applies one member's Arrive frame (see checkArrival for the
// validation contract).
func (s *session) arrive(c *srvConn, episode uint64) {
	id, ok := s.checkArrival(c, episode)
	if !ok {
		return
	}
	if s.op != nil {
		// A collective episode's release folds every member's deposit, so
		// a payload-less arrival contributes the op's identity: mixed
		// cohorts (plain clients alongside collective ones) stay correct.
		s.core.Load().b.ArriveReduce(id, s.ident)
		return
	}
	s.core.Load().b.Arrive(id)
}

// arriveData applies one member's ArriveData frame: an arrival carrying a
// collective contribution. The session must have been configured with an
// op, and the payload must be exactly the op's width — both are protocol
// violations, not per-member errors, because the episode's fold is
// already corrupted by the time a retry could land.
func (s *session) arriveData(c *srvConn, episode uint64, data []byte) {
	id, ok := s.checkArrival(c, episode)
	if !ok {
		return
	}
	if s.op == nil {
		s.poison(fmt.Errorf("netbarrier: protocol violation: client %d sent %s to a session with no collective op", id, wire.FrameName(wire.TypeArriveData)))
		return
	}
	if len(data) != s.op.Width {
		s.poison(fmt.Errorf("netbarrier: protocol violation: client %d contributed %d bytes, op %q wants %d", id, len(data), s.op.Name, s.op.Width))
		return
	}
	s.core.Load().b.ArriveReduce(id, data)
}

// shardArrive applies one leaf shard's aggregated arrival: the leaf's
// whole local cohort arrived, and the frame carries the shard's local
// participant count, its measured σ, and — for a collective session — the
// shard's locally folded contribution. The localP/σ report is recorded on
// the connection for the fleet aggregate computed at release time. An
// empty payload on a collective session contributes the op's identity (a
// plain-barrier leaf inside a collective fleet), mirroring arrive.
func (s *session) shardArrive(c *srvConn, f wire.Frame) {
	id, ok := s.checkArrival(c, f.Episode)
	if !ok {
		return
	}
	c.lastLocalP.Store(int64(f.P))
	c.lastSigma.Store(math.Float64bits(f.Sigma))
	if s.op == nil {
		if len(f.Data) != 0 {
			s.poison(fmt.Errorf("netbarrier: protocol violation: shard %d contributed %d bytes to a session with no collective op", id, len(f.Data)))
			return
		}
		s.core.Load().b.Arrive(id)
		return
	}
	if len(f.Data) == 0 {
		s.core.Load().b.ArriveReduce(id, s.ident)
		return
	}
	if len(f.Data) != s.op.Width {
		s.poison(fmt.Errorf("netbarrier: protocol violation: shard %d contributed %d bytes, op %q wants %d", id, len(f.Data), s.op.Name, s.op.Width))
		return
	}
	s.core.Load().b.ArriveReduce(id, f.Data)
}

// fleetStats folds the live shards' latest localP/σ reports into the
// session's fleet aggregate: fleetP is the sum of local participant
// counts, and the P-weighted mean of the shards' EWMA σ reports is folded
// into the session's own fleet EWMA (reusing the runtime estimator, so a
// shard re-planning locally moves the fleet estimate smoothly rather than
// stepwise). Releaser-only, at the quiescent point.
func (s *session) fleetStats() (fleetP int, fleetSigma float64) {
	s.mu.Lock()
	var wsum float64
	for _, m := range s.members {
		if m == nil || m.gone {
			continue
		}
		p := int(m.lastLocalP.Load())
		fleetP += p
		wsum += float64(p) * math.Float64frombits(m.lastSigma.Load())
	}
	s.mu.Unlock()
	if fleetP > 0 {
		s.fleetEst.Observe(wsum / float64(fleetP))
	}
	s.fleetP.Store(int64(fleetP))
	return fleetP, s.fleetEst.Sigma()
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

// onEpisode is the Observer callback: it runs on the reader goroutine
// whose arrival completed the root, at the episode's quiescent point. It
// folds the measured spread into the σ estimate and captures the episode's
// collective result; then, on a standalone server, it completes the
// episode immediately, while a leaf (Options.Upstream set) first forwards
// one aggregated arrival — carrying the local fold — to the root and
// completes only when the upstream outcome (the fleet-wide release, or the
// fleet's poison cause) comes back. Episode serialization makes the
// suspended completion safe: no local member can arrive at the next
// episode until the release this completion will broadcast reaches it, so
// at most one upstream round-trip per session is ever outstanding.
func (s *session) onEpisode(st softbarrier.EpisodeStats) {
	s.ctrl.Observe(st.Spread)
	box := s.core.Load()
	s.observePlacement(box, st.Episode)
	// Capture the collective result at the quiescent point, while the
	// completed core still owns it: a re-plan in the completion swaps the
	// core out, and the next same-parity episode would overwrite the
	// buffer.
	result := s.capture(box, st.Episode)
	if up := s.srv.opt.Upstream; up != nil && !s.dead.Load() {
		up.ShardArrive(s.name, s.episode.Load(), s.ctrl.Current().P, st.Spread, s.ctrl.Sigma(), result,
			func(out ShardOutcome) { s.completeEpisode(st, out) })
		return
	}
	s.completeEpisode(st, ShardOutcome{Result: result})
}

// completeEpisode finishes an episode once its outcome is known — locally
// immediate on a standalone server, or deferred to the upstream release on
// a leaf. It applies a due epoch plan (degree rebuild — and, in elastic
// mode, the membership boundary), advances the episode, and fans the
// completing frame out to every member socket. An upstream error poisons
// the session instead, delivering the fleet's cause to every local member.
func (s *session) completeEpisode(st softbarrier.EpisodeStats, out ShardOutcome) {
	s.mu.Lock()
	retired := s.retired
	s.mu.Unlock()
	if retired {
		// Every local member arrived and then left without awaiting, and
		// the clean retirement ran while the episode was in flight
		// upstream; nobody is left to release (or to poison).
		return
	}
	if out.Err != nil {
		s.poison(out.Err)
		return
	}
	if s.elastic {
		s.elasticBoundary(st, out)
		return
	}
	ep := s.episode.Load()
	box := s.core.Load()
	if !s.dead.Load() {
		if plan, ok := s.ctrl.Evaluate(); ok {
			s.core.Store(&coreBox{s.buildCore(plan)})
			box.b.Close() // retire the old tree's watchdog
			s.ctrl.Commit(plan)
			s.srv.opt.logf("session %s: episode %d re-planned degree %d -> %d (epoch %d, measured sigma %.3gs)",
				s.name, ep, box.b.Degree(), plan.Degree, plan.Epoch, plan.Sigma)
		} else if s.placementDue() {
			s.core.Store(&coreBox{s.buildCore(s.ctrl.Current())})
			box.b.Close()
			s.ctrl.NotePlacement()
			s.srv.opt.logf("session %s: episode %d placement rebuild (order %v)",
				s.name, ep, s.builtOrder)
		}
	}
	// Advance the episode before the first Release byte leaves: a client's
	// next Arrive frame is ordered after its Release, so every validation
	// against the episode counter sees the new value.
	s.episode.Store(ep + 1)
	if s.dead.Load() {
		return // poison raced in mid-episode; members already have the cause
	}
	cur := s.ctrl.Current()
	s.fanOut(ep, s.releaseFrame(ep, s.degree(), cur.P, cur.Epoch, st.Spread, s.sigmaFor(out), out.Result), s.releaseTargets(), nil)
}

// sigmaFor selects the σ an episode's release advertises: the fleet-wide
// estimate the root reported with this outcome when there is one, else the
// session's own local estimate. Leaf clients thus plan against the σ of
// the whole arrival population they actually synchronize with.
func (s *session) sigmaFor(out ShardOutcome) float64 {
	if out.Sigma > 0 {
		return out.Sigma
	}
	return s.ctrl.Sigma()
}

// upstreamClose tells the leaf's upstream link that this session is done —
// gracefully when cause is nil (the link leaves the root session), or with
// the poison cause otherwise (the link forwards it, failing the fleet-wide
// session so every other shard's members learn why).
func (s *session) upstreamClose(cause error) {
	if up := s.srv.opt.Upstream; up != nil {
		up.ShardClose(s.name, cause)
	}
}

// capture copies episode's folded result out of the completed core into
// the session's reusable capture buffer, or returns nil for a plain
// barrier session. Releaser-only; the bytes are consumed (copied into the
// release frame encoding) before the next episode's capture can run.
func (s *session) capture(box *coreBox, episode uint64) []byte {
	if s.op == nil {
		return nil
	}
	s.capBuf = append(s.capBuf[:0], box.b.Reduced(episode)...)
	return s.capBuf
}

// releaseFrame builds the frame completing an episode: a Release for a
// plain session, a Result carrying the folded contributions for a
// collective one, or — for an inter-shard session — a ShardRelease
// carrying both the fleet-wide result and the fleet aggregate (ΣP and the
// σ folded across the shards' reports), which each leaf fans back out to
// its local clients.
func (s *session) releaseFrame(ep uint64, degree, p int, epoch uint64, spread, sigma float64, result []byte) wire.Frame {
	if s.shard {
		fleetP, fleetSigma := s.fleetStats()
		return wire.Frame{
			Type: wire.TypeShardRelease, Episode: ep,
			Degree: degree, P: p, Epoch: epoch,
			Spread: spread, Sigma: fleetSigma,
			FleetP: fleetP, Data: result,
		}
	}
	f := wire.Frame{
		Type: wire.TypeRelease, Episode: ep,
		Degree: degree, P: p, Epoch: epoch,
		Spread: spread, Sigma: sigma,
	}
	if s.op != nil {
		f.Type = wire.TypeResult
		f.Data = result
	}
	return f
}

// elasticBoundary is the elastic session's episode boundary: under the
// session mutex it compacts the membership (dropping departed members,
// admitting pending joiners, re-assigning ids densely), queues the new
// membership with the controller, applies the resulting epoch plan, and
// advances the episode; then, outside the mutex, it answers the admitted
// joiners and releases the continuing members. Holding the mutex across
// compaction and the episode advance is what makes a concurrent Leave
// safe: a leaver observes either the pre-boundary episode (and
// proxy-arrives into the old tree, which still needs its arrival) or the
// post-boundary membership (which no longer contains it).
//
// A boundary with unchanged membership — the elastic steady state — skips
// compaction entirely: ids, members, and the controller's P are already
// right, so the boundary degenerates to the fixed-membership episode path
// (observe, re-plan if due, advance, fan out) and stays allocation-free.
func (s *session) elasticBoundary(st softbarrier.EpisodeStats, out ShardOutcome) {
	s.mu.Lock()
	ep := s.episode.Load()
	box := s.core.Load()

	continuing := s.contBuf[:0]
	for _, m := range s.members {
		if m != nil && !m.gone {
			continuing = append(continuing, m)
		}
	}
	s.contBuf = continuing
	var admitted []*srvConn
	if len(s.pending) > 0 || s.left > 0 {
		admitted = s.pending
		s.pending = nil
		if len(continuing)+len(admitted) == 0 {
			s.retired = true
			s.episode.Store(ep + 1)
			s.mu.Unlock()
			box.b.Close()
			s.upstreamClose(nil)
			s.srv.retire(s)
			return
		}
		// The membership slice must not alias the reusable contBuf scratch:
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
		s.joined = len(live)
		s.left = 0
		if n := len(live); n != s.ctrl.Current().P {
			s.ctrl.RequestP(n) // n ≥ 1 here, so the request cannot fail
		}
	}
	var old arrivalTree
	if !s.dead.Load() {
		if plan, ok := s.ctrl.Evaluate(); ok {
			s.core.Store(&coreBox{s.buildCore(plan)})
			old = box.b
			s.ctrl.Commit(plan)
		} else if s.placementDue() {
			s.core.Store(&coreBox{s.buildCore(s.ctrl.Current())})
			old = box.b
			s.ctrl.NotePlacement()
		}
	}
	s.episode.Store(ep + 1)
	cur := s.ctrl.Current()
	s.mu.Unlock()

	if old != nil {
		old.Close()
		s.srv.opt.logf("session %s: episode %d epoch %d: p %d degree %d (measured sigma %.3gs, %d joined, %d continuing)",
			s.name, ep, cur.Epoch, cur.P, cur.Degree, cur.Sigma, len(admitted), len(continuing))
	}
	if s.dead.Load() {
		return // poison raced in mid-episode; members already have the cause
	}
	s.fanOut(ep, s.releaseFrame(ep, s.degree(), cur.P, cur.Epoch, st.Spread, s.sigmaFor(out), out.Result), continuing, admitted)
}

// onPoison is the WithPoisonNotify hook: whatever poisoned the tree —
// watchdog stall, client disconnect, protocol violation, server shutdown —
// lands here exactly once, and every member socket receives the
// wire-encoded cause instead of a Release; pending joiners get a refusing
// JoinResp, and a refusal that cannot be written is logged and the
// connection closed, so the client fails fast instead of hanging until its
// join timeout. Sends run concurrently — one stalled socket costs one
// write deadline, not a deadline per member — but the hook still blocks
// until every send finishes: Server.Close poisons sessions and then
// immediately closes every connection, so the cause frames must be on the
// wire before this returns.
//
// The session gives up its name before the first cause frame leaves, so a
// member that reads the cause and rejoins the name at once opens a fresh
// session instead of being refused by this dying one. The upstream link
// goes first: its ShardClose is keyed by name and must not meet a
// successor's link.
func (s *session) onPoison(err error) {
	if !s.dead.CompareAndSwap(false, true) {
		return
	}
	s.srv.opt.logf("session %s: poisoned: %v (arrivals %v)", s.name, err, s.core.Load().b.Arrivals())
	s.mu.Lock()
	members := make([]*srvConn, 0, s.joined)
	for _, m := range s.members {
		if m != nil && !m.gone {
			members = append(members, m)
		}
	}
	pending := s.pending
	s.pending = nil
	s.mu.Unlock()
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
	s.core.Load().b.Close()
}

// unreachable poisons the session on behalf of a member whose socket
// could not be written: it will never see a release, so never arrive
// again.
func (s *session) unreachable(c *srvConn, err error) {
	s.poison(fmt.Errorf("netbarrier: client %d unreachable: %w", c.id.Load(), err))
}

// poison fails the session with the given cause. The notify hook on the
// current core performs the broadcast.
func (s *session) poison(err error) { s.core.Load().b.Poison(err) }

// releaseTargets collects the live members into the releaser's reusable
// scratch slice. Releaser-only.
func (s *session) releaseTargets() []*srvConn {
	s.mu.Lock()
	ms := s.bcast[:0]
	for _, m := range s.members {
		if m != nil && !m.gone {
			ms = append(ms, m)
		}
	}
	s.bcast = ms
	s.mu.Unlock()
	return ms
}

// fanOut is the release fan-out: it answers the joiners this boundary
// admitted (elastic sessions; each JoinResp is its own small encoding) and
// sends the episode-completing frame — encoded once, into the
// parity-double-buffered release scratch, so a steady-state episode
// encodes with zero allocations — to every continuing member. The
// releaser writes each socket itself (srvConn.send): with the server idle
// behind the last arrival, the synchronization delay is this loop, and a
// write per member is all it holds — no goroutine is woken, no timer
// armed, nothing allocated.
//
// One stalled socket cannot delay the rest: send never blocks, handing a
// frame the socket will not take whole to a goroutine of its own, whose
// write still times out against the server's write deadline and poisons
// the session then. A write error met inline is kept until every other
// member has its frame, and poisons once, after the loop — poisoning
// blocks until the cause frames are written, which in the middle of the
// loop is exactly the wait behind a bad socket the loop must not have.
//
// Scratch safety: a same-parity buffer is reused two episodes later, by
// which time every borrowing write has completed — a member must receive
// episode k's release before it can arrive at k+1, and releases k+1 and
// k+2 cannot exist before every member arrived. Inline writes are done
// with the buffer when send returns; relPending counts the goroutines
// still holding it (a stalled socket), and nonzero means encode into a
// fresh allocation instead.
func (s *session) fanOut(ep uint64, f wire.Frame, continuing, admitted []*srvConn) {
	var failed *srvConn
	var failure error
	send := func(m *srvConn, buf []byte, pend *atomic.Int64) {
		if err := m.send(sendJob{buf: buf, sess: s, pend: pend}); err != nil && failed == nil {
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
		send(m, buf, nil)
	}
	parity := ep & 1
	pend := &s.relPending[parity]
	var dst []byte
	if pend.Load() == 0 {
		dst = s.relScratch[parity][:0]
	} else {
		pend = nil // scratch still borrowed; this fan-out owns a private buffer
	}
	buf, err := wire.AppendFrame(dst, f)
	if err != nil {
		s.poison(fmt.Errorf("netbarrier: internal: unencodable frame: %w", err))
		return
	}
	if pend != nil {
		s.relScratch[parity] = buf
	}
	for _, m := range continuing {
		send(m, buf, pend)
	}
	if failed != nil {
		s.unreachable(failed, failure)
	}
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
				s.joined++
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
	s.joined++
	return id, "", false
}

// leave processes a graceful departure: the member will not arrive again,
// and its connection closing is no longer a failure.
//
// Fixed-membership sessions retire when every joined member has left; a
// member that leaves while others keep arriving causes a stall, which the
// watchdog converts into a StallError naming it — departure there is
// cooperative, not transparent. An elastic session instead absorbs the
// departure at the next episode boundary: if the leaver had not yet
// arrived at the in-flight episode, the session arrives on its behalf
// (the episode cannot complete without that slot, and the leaver will
// never fill it), and the boundary's compaction then drops it from the
// next epoch.
func (s *session) leave(c *srvConn) {
	if !s.elastic {
		s.mu.Lock()
		c.gone = true
		c.leftOK = true
		s.left++
		done := s.left == s.joined && s.joined > 0
		if done {
			s.retired = true
		}
		s.mu.Unlock()
		if done {
			s.core.Load().b.Close()
			s.upstreamClose(nil)
			s.srv.retire(s)
		}
		return
	}
	s.mu.Lock()
	if c.id.Load() < 0 { // pending, never admitted: just forget it
		s.dropPendingLocked(c)
		c.leftOK = true
		s.mu.Unlock()
		return
	}
	c.gone = true
	c.leftOK = true
	s.left++
	cur := s.episode.Load()
	needProxy := c.nextArrive.Load() <= cur && !s.dead.Load()
	allGone := len(s.pending) == 0
	for _, m := range s.members {
		if m != nil && !m.gone {
			allGone = false
			break
		}
	}
	done := allGone && !needProxy
	if done {
		s.retired = true
	}
	core := s.core.Load()
	s.mu.Unlock()
	if needProxy {
		// The proxy arrival below may complete the episode, whose boundary
		// (or, if everyone is gone, retirement) runs inside this call. A
		// collective session folds the op's identity on the leaver's
		// behalf, so the cohort's result is unchanged by its absence.
		if s.op != nil {
			core.b.ArriveReduce(int(c.id.Load()), s.ident)
		} else {
			core.b.Arrive(int(c.id.Load()))
		}
		return
	}
	if done {
		core.b.Close()
		s.upstreamClose(nil)
		s.srv.retire(s)
	}
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
