package softbarrier

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"softbarrier/internal/loadmodel"
	rt "softbarrier/internal/runtime"
	"softbarrier/internal/topology"
)

// ReconfigurableBarrier is a combining-tree barrier whose configuration —
// tree degree and participant count — is an epoch the barrier replaces
// itself. The releasing participant folds each measured episode's arrival
// spread into the EWMA σ estimate (every episode is measured for an
// Observer or a placement policy, otherwise only the one a re-plan reads).
// On the replan cadence, and immediately when a membership change is
// pending, it asks the analytic model (OptimalDegree) for the degree. When
// that or the membership changed, it builds the next epoch at the
// episode's quiescent point, before opening the release gate. The first
// epoch is planned by the same model, from ReconfigConfig.InitialSigma.
// This is the run-time degree adaptation the paper's conclusion proposes
// (DESIGN §5.8), extended to elastic membership:
// Grow/Shrink/RequestResize queue a participant-count change that lands at
// the next episode boundary, and Resize applies one immediately when the
// caller knows the barrier is idle.
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

	// ctl is the re-plan rule: the σ estimate, the cadence, t_c and the
	// placement policy. Only the releasing participant steps it.
	ctl loadmodel.Controller

	// target is the membership the barrier is asked to run at — the one
	// word other goroutines write. RequestResize and Resize store it, Grow
	// and Shrink move it by CAS, and the releaser builds a new epoch
	// whenever it differs from the running epoch's P. Nothing is ever
	// cleared: a request that lands mid-boundary still differs at the next.
	target     atomic.Int64
	placements atomic.Uint64 // placement-only rebuilds so far

	lagBuf []float64 // the placement policy's lags; releaser-only

	_ [24]byte
}

// Eight whole cache lines, on purpose: 512 bytes is an allocation class
// whose objects start on a cache line. An unpadded size between classes
// rounds up to one that does not (456 bytes landed in the 480 class and
// measured +7% sync delay on lib-allreduce-32; perf/PR-23.md).
// Compiles only at exactly 512: shrink the padding when a field is added.
const (
	_ = 512 - unsafe.Sizeof(ReconfigurableBarrier{})
	_ = unsafe.Sizeof(ReconfigurableBarrier{}) - 512
)

// ReconfigConfig tunes a ReconfigurableBarrier's replan cadence and model
// inputs. The barrier rebuilds on any change of the model's degree; the
// zero value re-plans every episode with the paper's 20µs counter cost and
// starts at the model's degree for simultaneous arrivals.
type ReconfigConfig struct {
	// ReplanEvery is how many episodes pass between degree
	// re-evaluations; 0 means every episode. With no Observer and no
	// placement policy only the episode a re-evaluation reads is measured,
	// so σ covers 1−0.8^k of a step in the imbalance after k of those.
	ReplanEvery int
	// Tc is the assumed counter update cost fed to the model, seconds;
	// 0 selects the paper's 20µs.
	Tc float64
	// InitialSigma is the arrival spread assumed before any episode has
	// been measured, seconds; the first epoch runs at the model's degree
	// for it. Negative panics, as a negative Tc does.
	InitialSigma float64
}

// ReconfigStats is the unified reconfiguration telemetry every elastic
// barrier exposes — the in-process ReconfigurableBarrier and the
// netbarrier sessions report the same shape.
type ReconfigStats struct {
	// Evals counts measured episodes, the ones folded into σ: all of them
	// with an Observer or a placement policy, else one per cadence re-plan.
	Evals uint64
	// Placements counts placement-only rebuilds: same configuration,
	// slots re-ordered by a placement policy's predicted-straggler order.
	Placements uint64
	// LastPlan is the running epoch's plan; for a barrier that never
	// re-planned it describes the initial configuration. Its Epoch is
	// also how many times a new epoch replaced the running one.
	LastPlan ReconfigPlan
}

// ReconfigPlan is one epoch's configuration as planned at its boundary.
type ReconfigPlan struct {
	// Epoch is the 0-based configuration index; the initial
	// configuration is epoch 0 and every rebuild increments it.
	Epoch uint64
	// P is the participant count the epoch runs at.
	P int
	// Degree is the combining-tree degree.
	Degree int
	// Sigma is the σ estimate the plan was derived from, seconds.
	Sigma float64
	// Episodes is how many measured episodes σ was based on at plan time.
	Episodes uint64
}

// Resizable is a barrier whose participant count can be changed at a
// quiescent point.
type Resizable interface {
	Participants() int
	Resize(p int) error
}

// NewReconfigurable returns an elastic, self-tuning barrier for p initial
// participants.
func NewReconfigurable(p int, cfg ReconfigConfig, opts ...Option) *ReconfigurableBarrier {
	if p < 1 {
		panic("softbarrier: need at least one participant")
	}
	if cfg.ReplanEvery < 0 {
		panic("softbarrier: negative replan cadence")
	}
	if cfg.Tc < 0 {
		panic("softbarrier: negative counter update cost")
	}
	if cfg.InitialSigma < 0 {
		panic("softbarrier: negative initial arrival spread")
	}
	o := applyOptions(opts)
	b := &ReconfigurableBarrier{}
	b.ctl.Init(cfg.ReplanEvery, cfg.Tc, 0, o.placement)
	b.elastic = b
	b.target.Store(int64(p))
	b.init(o, b.newEpoch(nil, b.ctl.Replan(loadmodel.Plan{Sigma: cfg.InitialSigma}, p)))
	return b
}

// newEpoch builds the tree a plan describes, carrying forward the
// generation slots of prev (nil for the initial epoch); the caller numbers
// it. Its first episode runs at nextGen. A non-nil order (one entry per
// participant) relabels the tree laggiest-first-shallowest (PlaceByDepth).
// A barrier with a placement policy builds MCS trees, because a classic
// tree puts every participant at the same (leaf) depth and placement would
// choose nothing.
func (b *ReconfigurableBarrier) newEpoch(prev *treeEpoch, pl loadmodel.Plan) treeEpoch {
	var tree *topology.Tree
	if b.ctl.Placing() {
		tree = topology.NewMCS(pl.P, pl.Degree)
	} else {
		tree = topology.NewClassic(pl.P, pl.Degree)
	}
	st := newTreeEpoch(tree.MustPlaceByDepth(pl.Order), prev, b.nextGen)
	st.Plan = pl
	return st
}

// Epoch returns the 0-based configuration epoch.
func (b *ReconfigurableBarrier) Epoch() uint64 { return b.state.Load().epoch }

// Sigma returns the σ estimate, seconds: an EWMA over the measured episodes.
func (b *ReconfigurableBarrier) Sigma() float64 { return b.ctl.Sigma() }

// Depths returns the current epoch's per-participant synchronization
// path lengths — how many counters each participant updates per episode.
// With a placement policy armed, predicted stragglers show the smallest
// depths after a placement rebuild. The epoch's tree is immutable, so
// Depths is safe from any goroutine; it reflects the epoch current at
// the call.
func (b *ReconfigurableBarrier) Depths() []int {
	return b.state.Load().depths()
}

// ReconfigStats returns the unified reconfiguration telemetry: the
// measured-episode and placement counts plus the running epoch's plan (σ
// at plan time included). It is safe from any goroutine and takes no lock:
// the plan is read off one published epoch, so its fields always agree
// with each other.
func (b *ReconfigurableBarrier) ReconfigStats() ReconfigStats {
	st := b.state.Load()
	return ReconfigStats{
		Evals:      b.ctl.Episodes(),
		Placements: b.placements.Load(),
		LastPlan: ReconfigPlan{
			Epoch:    st.epoch,
			P:        st.P,
			Degree:   st.Degree,
			Sigma:    st.Sigma,
			Episodes: st.episodes,
		},
	}
}

// Resize changes the participant count immediately, superseding any queued
// membership request (the last request wins, and this is the later one).
// It may only be called at a quiescent point — no Wait/Arrive/Await in
// flight — exactly like Reset, or from the Observer of the completing
// episode, which runs at one; use Grow/Shrink/RequestResize to change
// membership while the barrier is running.
func (b *ReconfigurableBarrier) Resize(p int) error {
	if p < 1 {
		return errTarget(p)
	}
	b.target.Store(int64(p))
	st := b.state.Load()
	b.install(st, b.ctl.Replan(st.Plan, p))
	return nil
}

func errTarget(p int) error {
	return fmt.Errorf("softbarrier: membership target %d below 1", p)
}

// RequestResize queues a membership change to p participants; the change
// is applied at the next episode boundary. Safe from any goroutine; the
// last request before the boundary wins.
func (b *ReconfigurableBarrier) RequestResize(p int) error {
	if p < 1 {
		return errTarget(p)
	}
	b.target.Store(int64(p))
	return nil
}

// Grow queues the admission of n more participants at the next episode
// boundary and returns the resulting membership target. The new ids are
// the target's top n; a new worker must wait until Participants covers its
// id before its first Wait.
func (b *ReconfigurableBarrier) Grow(n int) (int, error) { return b.requestDelta(n) }

// Shrink queues the removal of the top n participant ids at the next
// episode boundary and returns the resulting membership target. Shrunk
// workers observe their removal when Wait returns with Participants no
// longer covering their id.
func (b *ReconfigurableBarrier) Shrink(n int) (int, error) { return b.requestDelta(-n) }

// requestDelta moves the membership target by delta. With nothing queued
// the target is the current P; otherwise successive requests stack.
func (b *ReconfigurableBarrier) requestDelta(delta int) (int, error) {
	for {
		old := b.target.Load()
		p := int(old) + delta
		if p < 1 {
			return 0, errTarget(p)
		}
		if b.target.CompareAndSwap(old, int64(p)) {
			return p, nil
		}
	}
}

// release runs on the participant that completed the root: a quiescent
// point for the counters. It steps the controller with the episode (its
// measured spread and lags, and the membership target) and builds what
// the controller decides the next episode runs on: a new epoch, the same
// epoch re-placed, or nothing. Then it emits the episode's telemetry and
// opens the gate.
func (b *ReconfigurableBarrier) release(st *treeEpoch) {
	seq := b.gate.Seq()
	b.nextGen = seq + 1
	// Measured: all for an Observer or a placement policy, else the cadence's.
	m, measured := b.rec.Measure(seq)
	e := loadmodel.Episode{Seq: seq, Spread: m.Spread, Measured: measured, Target: int(b.target.Load())}
	if b.ctl.Placing() {
		b.lagBuf = b.rec.LagsInto(seq, b.lagBuf)
		e.Lags = b.lagBuf
	}
	next := st.Plan
	switch b.ctl.Step(&next, &e) {
	case loadmodel.NewEpoch:
		b.install(st, next)
	case loadmodel.Reorder:
		b.reorder(st, next)
	}
	if measured {
		cur := b.state.Load()
		b.rec.Emit(m, rt.Extra{Degree: cur.Degree, Epoch: cur.epoch})
	}
	b.gate.Open()
}

// install builds the epoch after prev and publishes it. It must run at a
// quiescent point: the release path, or a caller-synchronized Resize.
func (b *ReconfigurableBarrier) install(prev *treeEpoch, pl loadmodel.Plan) {
	next := b.newEpoch(prev, pl)
	next.epoch, next.episodes = prev.epoch+1, b.ctl.Episodes()
	if pl.P != prev.P {
		b.rec.Resize(pl.P)
		if b.arrived.Load() != nil {
			b.resizeArrived(pl.P) // the watchdog's counts restart; its poll sees progress
		}
		for i := range next.slots {
			next.slots[i].arrivals = 0 // and so do the slots' own
		}
	}
	// The reducer's deposit and input cells are rebuilt for the new tree;
	// its published result buffers survive, so awaiters of the pre-rebuild
	// episode still copy their in-flight result.
	b.red.Resize(pl.P, next.inputs())
	b.state.Store(&next)
}

// reorder rebuilds the running epoch's tree with a new placement order —
// same P, degree, epoch number and plan, slots re-labelled so order[k]
// sits on the k-th shallowest slot. Like install it runs only at the
// quiescent release point; ReconfigStats.Placements counts these
// rebuilds. The tree keeps its shape, so the reducer's cells still fit.
func (b *ReconfigurableBarrier) reorder(prev *treeEpoch, pl loadmodel.Plan) {
	next := b.newEpoch(prev, pl)
	next.epoch, next.episodes = prev.epoch, prev.episodes
	b.state.Store(&next)
	b.placements.Add(1)
}

var _ PhasedBarrier = (*ReconfigurableBarrier)(nil)
var _ ContextBarrier = (*ReconfigurableBarrier)(nil)
var _ Collective = (*ReconfigurableBarrier)(nil)
var _ Resizable = (*ReconfigurableBarrier)(nil)
