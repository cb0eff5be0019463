package softbarrier

import (
	"unsafe"

	"softbarrier/internal/model"
	"softbarrier/internal/reconfig"
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// ReconfigurableBarrier is a combining-tree barrier whose configuration —
// tree degree and participant count — is an epoch managed by the shared
// internal/reconfig controller. Every episode the releasing participant
// folds the measured arrival spread into the EWMA σ estimate; on the
// replan cadence (and immediately when a membership change is pending)
// the controller derives a new Plan from the analytic model
// (OptimalDegree) with hysteresis, and the releaser applies it at the
// episode's quiescent point, before opening the release gate. This is the
// run-time degree adaptation the paper's conclusion proposes, extended to
// elastic membership: Grow/Shrink/RequestResize queue a participant-count
// change that lands at the next episode boundary, and Resize applies one
// immediately when the caller knows the barrier is idle.
//
// Elastic protocol, from a worker's point of view: a worker that may be
// shrunk away checks Participants after each Wait returns and stops when
// its id falls outside the membership (the swap is published before the
// release that wakes it, so the check is race-free). A newly grown worker
// waits until Participants covers its id and then calls Wait; Arrive
// internally holds it until the admitting epoch's release has happened, so
// it can never contribute to — or slip past — an episode of the epoch
// before it existed.
//
// Drain before regrow: a shrunk id may be handed to a new worker only
// after its old owner has returned from its last Wait, which still reads
// the id's slot. (A coordinator arriving for remote members,
// internal/netbarrier, is exempt: a departed connection never arrives or
// awaits again.)
type ReconfigurableBarrier struct {
	treeCore
	// nextGen is the gate generation the next episode runs at. release sets
	// it first, so a Resize from the completing episode's Observer — gate
	// not yet open — stamps what one made after it would. Quiescent-only.
	nextGen uint64

	ctrl *reconfig.Controller
	est  rt.SigmaEstimator // EWMA of per-episode arrival spread, seconds

	// Predictive straggler placement (WithPlacementPolicy). place and
	// lagBuf are touched only by the releasing participant.
	place  PlacementPolicy
	lagBuf []float64
}

// 448 bytes is an allocation class whose objects start on a cache line;
// one word more lands in the 480 class, which measured +7% sync delay on
// lib-allreduce-32 (EXPERIMENTS.md, PR 23). Fails to compile on growth.
const _ = 448 - unsafe.Sizeof(ReconfigurableBarrier{})

// ReconfigConfig tunes a ReconfigurableBarrier's replan cadence,
// hysteresis and model inputs. The zero value re-plans every episode with
// no hysteresis, starting at degree 4 with the paper's 20µs counter cost.
type ReconfigConfig struct {
	// ReplanEvery is how many episodes pass between degree
	// re-evaluations; 0 means every episode.
	ReplanEvery int
	// MinEpisodesBetween defers degree-only rebuilds until at least this
	// many episodes have passed since the last one; 0 disables the floor.
	// Membership changes are never deferred.
	MinEpisodesBetween int
	// MinDegreeDelta suppresses rebuilds whose recommended degree moved
	// by less than this; 0 means any change rebuilds.
	MinDegreeDelta int
	// Tc is the assumed counter update cost fed to the model, seconds;
	// 0 selects the paper's 20µs.
	Tc float64
	// InitialSigma is the arrival spread assumed before any episode has
	// been measured, seconds.
	InitialSigma float64
	// InitialDegree is the starting tree degree; 0 selects 4 (the
	// classic simultaneous-arrival optimum).
	InitialDegree int
}

// ReconfigStats is the unified reconfiguration telemetry every elastic
// barrier exposes — the in-process ReconfigurableBarrier and the
// netbarrier sessions report the same shape.
type ReconfigStats = reconfig.Stats

// ReconfigPlan is one epoch's configuration as planned by the controller.
type ReconfigPlan = reconfig.Plan

// Resizable is a barrier whose participant count can be changed at a
// quiescent point.
type Resizable interface {
	Participants() int
	Resize(p int) error
}

// NewReconfigurable returns an elastic adaptive barrier for p initial
// participants.
func NewReconfigurable(p int, cfg ReconfigConfig, opts ...Option) *ReconfigurableBarrier {
	if p < 1 {
		panic("softbarrier: need at least one participant")
	}
	if cfg.ReplanEvery < 0 {
		panic("softbarrier: negative replan cadence")
	}
	if cfg.Tc == 0 {
		cfg.Tc = model.DefaultTc
	}
	if cfg.Tc < 0 {
		panic("softbarrier: negative counter update cost")
	}
	if cfg.InitialDegree == 0 {
		cfg.InitialDegree = 4
	}
	if cfg.InitialDegree < 2 {
		panic("softbarrier: tree degree must be ≥ 2")
	}
	o := applyOptions(opts)
	b, tc := &ReconfigurableBarrier{place: o.placement}, cfg.Tc
	b.elastic = b
	b.est.Init(rt.DefaultSigmaWeight)
	b.ctrl = reconfig.New(
		reconfig.Config{
			ReplanEvery:        uint64(cfg.ReplanEvery),
			MinEpisodesBetween: uint64(cfg.MinEpisodesBetween),
			MinDegreeDelta:     cfg.MinDegreeDelta,
			InitialSigma:       cfg.InitialSigma,
		},
		&b.est,
		func(p int, sigma float64) int { return OptimalDegree(p, sigma, tc) },
		reconfig.Plan{P: p, Degree: cfg.InitialDegree},
	)
	b.init(o, b.newEpoch(nil, b.ctrl.Current(), 0, nil))
	return b
}

// newEpoch builds the epoch described by plan, carrying forward the
// generation slots of prev (nil for the initial epoch). epochGen is the
// gate generation at which the epoch's first episode runs. order, when
// it covers plan.P, relabels the tree laggiest-first-shallowest
// (PlaceByDepth). A barrier with a placement policy builds MCS epochs,
// because a classic tree puts every participant at the same (leaf) depth
// and placement would choose nothing.
func (b *ReconfigurableBarrier) newEpoch(prev *treeEpoch, plan reconfig.Plan, epochGen uint64, order []int) treeEpoch {
	var tree *topology.Tree
	if b.place != nil {
		tree = topology.NewMCS(plan.P, plan.Degree)
	} else {
		tree = topology.NewClassic(plan.P, plan.Degree)
	}
	if len(order) == plan.P {
		tree = placeTree(tree, order)
	} else {
		order = nil
	}
	st := newTreeEpoch(tree, prev, epochGen)
	st.epoch, st.order = plan.Epoch, order
	return st
}

// Epoch returns the 0-based configuration epoch.
func (b *ReconfigurableBarrier) Epoch() uint64 { return b.state.Load().epoch }

// Sigma returns the current arrival-spread estimate in seconds.
func (b *ReconfigurableBarrier) Sigma() float64 { return b.est.Sigma() }

// Depths returns the current epoch's per-participant synchronization
// path lengths — how many counters each participant updates per episode.
// With a placement policy armed, predicted stragglers show the smallest
// depths after a placement rebuild. The epoch's tree is immutable, so
// Depths is safe from any goroutine; it reflects the epoch current at
// the call.
func (b *ReconfigurableBarrier) Depths() []int {
	return b.state.Load().depths()
}

// MeasuredSigma implements SigmaSource: the live σ estimate and the number
// of episodes it is based on, for feeding back into the planner.
func (b *ReconfigurableBarrier) MeasuredSigma() (sigma float64, episodes uint64) {
	return b.est.Sigma(), b.est.Episodes()
}

// Adaptations returns how many times the barrier has rebuilt its tree.
func (b *ReconfigurableBarrier) Adaptations() uint64 { return b.ctrl.Rebuilds() }

// ReconfigStats returns the unified reconfiguration telemetry: epoch and
// rebuild counts plus the last committed plan (σ at plan time included).
func (b *ReconfigurableBarrier) ReconfigStats() ReconfigStats { return b.ctrl.Stats() }

// Resize changes the participant count immediately. It may only be called
// at a quiescent point — no Wait/Arrive/Await in flight — exactly like
// Reset, or from the Observer of the completing episode, which runs at
// one; use Grow/Shrink/RequestResize to change membership while the
// barrier is running.
func (b *ReconfigurableBarrier) Resize(p int) error {
	plan, err := b.ctrl.PlanResize(p)
	if err != nil {
		return err
	}
	b.apply(b.state.Load(), plan, b.nextGen)
	return nil
}

// RequestResize queues a membership change to p participants; the change
// is applied at the next episode boundary. Safe from any goroutine; the
// last request before the boundary wins.
func (b *ReconfigurableBarrier) RequestResize(p int) error { return b.ctrl.RequestP(p) }

// Grow queues the admission of n more participants at the next episode
// boundary and returns the resulting membership target. The new ids are
// the target's top n; a new worker must wait until Participants covers its
// id before its first Wait.
func (b *ReconfigurableBarrier) Grow(n int) (int, error) { return b.ctrl.RequestDelta(n) }

// Shrink queues the removal of the top n participant ids at the next
// episode boundary and returns the resulting membership target. Shrunk
// workers observe their removal when Wait returns with Participants no
// longer covering their id.
func (b *ReconfigurableBarrier) Shrink(n int) (int, error) { return b.ctrl.RequestDelta(-n) }

// release runs on the participant that completed the root: a quiescent
// point for the counters. It folds the measured spread into the σ
// estimate (and the per-participant lags into the placement policy),
// asks the controller whether a new epoch is due, applies the plan if
// so — otherwise rebuilds in place when the policy's predicted-straggler
// order changed on the replan cadence — emits the episode's telemetry,
// and opens the gate.
func (b *ReconfigurableBarrier) release(st *treeEpoch) {
	seq := b.gate.Seq()
	b.nextGen = seq + 1
	m, _ := b.rec.Measure(seq)
	b.ctrl.Observe(m.Spread)
	if b.place != nil {
		if b.lagBuf = b.rec.LagsInto(seq, b.lagBuf); len(b.lagBuf) > 0 {
			b.place.Observe(b.lagBuf)
		}
	}
	if plan, ok := b.ctrl.Evaluate(); ok {
		// The new epoch's first episode runs at the generation the Open
		// below advances to.
		b.apply(st, plan, b.nextGen)
	} else if order := b.duePlacementOrder(st); order != nil {
		b.applyPlacement(st, order, b.nextGen)
	}
	cur := b.state.Load()
	b.rec.Emit(m, rt.Extra{Adaptations: b.ctrl.Rebuilds(), Degree: cur.tree.Degree, Epoch: cur.epoch})
	b.gate.Open()
}

// duePlacementOrder decides, on the replan cadence, whether the policy
// wants the running epoch's slots re-ordered: it returns the new order,
// or nil when none is due (off cadence, no policy opinion, opinion for a
// stale membership, or unchanged from the epoch's current placement).
// Order() is consumed at most once per release — hysteresis policies
// record what they emit.
func (b *ReconfigurableBarrier) duePlacementOrder(st *treeEpoch) []int {
	if b.place == nil {
		return nil
	}
	n := b.ctrl.Episodes()
	if n == 0 || n%b.ctrl.Config().ReplanEvery != 0 {
		return nil
	}
	order := policyOrder(b.place, st.p)
	if order == nil || sameOrder(order, st.order, st.p) {
		return nil
	}
	return order
}

// apply installs plan as the running epoch. It must run at a quiescent
// point: the release path, or a caller-synchronized Resize.
func (b *ReconfigurableBarrier) apply(prev *treeEpoch, plan reconfig.Plan, epochGen uint64) {
	order := policyOrder(b.place, plan.P)
	if order == nil && len(prev.order) == plan.P {
		// The policy has no (new) opinion for this membership; keep the
		// placement the previous epoch ran with rather than snapping back
		// to the identity order.
		order = prev.order
	}
	next := b.newEpoch(prev, plan, epochGen, order)
	if plan.P != prev.p {
		b.rec.Resize(plan.P)
		b.resizeArrivals(plan.P)
	}
	// The reducer's deposit cells and node accumulators are rebuilt for
	// the new tree; its published result buffers survive, so awaiters of
	// the pre-rebuild episode still copy their in-flight result.
	b.red.Resize(plan.P, len(next.counters))
	b.state.Store(&next)
	b.ctrl.Commit(plan)
}

// applyPlacement rebuilds the running epoch's tree with a new placement
// order — same P, degree and epoch number, slots re-labelled so order[k]
// sits on the k-th shallowest slot. Like apply it runs only at the
// quiescent release point; ReconfigStats.Placements counts these
// rebuilds.
func (b *ReconfigurableBarrier) applyPlacement(prev *treeEpoch, order []int, epochGen uint64) {
	plan := b.ctrl.Current()
	next := b.newEpoch(prev, plan, epochGen, order)
	b.red.Resize(plan.P, len(next.counters))
	b.state.Store(&next)
	b.ctrl.NotePlacement()
}

var _ PhasedBarrier = (*ReconfigurableBarrier)(nil)
var _ ContextBarrier = (*ReconfigurableBarrier)(nil)
var _ Collective = (*ReconfigurableBarrier)(nil)
var _ Resizable = (*ReconfigurableBarrier)(nil)
var _ SigmaSource = (*ReconfigurableBarrier)(nil)
