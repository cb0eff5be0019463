package softbarrier

import (
	"context"
	"sync/atomic"

	rt "softbarrier/internal/runtime"
)

// CentralBarrier is the classic sense-reversing counter barrier: one shared
// counter plus a global sense flag. Its arrival cost is O(P) serialized
// updates, which is exactly the contention the combining trees exist to
// avoid — but when arrivals are spread much wider than the update time, the
// paper shows this flat barrier is in fact optimal (Fig. 3, large σ).
//
// Waiting and telemetry run on the shared internal/runtime core: Await
// follows internal/runtime's default spin→yield→park policy, and an
// installed Observer (WithObserver) receives one EpisodeStats per episode.
type CentralBarrier struct {
	p     int
	count atomic.Int64
	_     [56]byte // keep the hot counter off the gate's generation line
	gate  rt.Gate
	local []arrivalSlot // per-participant sense snapshot and arrival count, padded against false sharing
	rec   *rt.Recorder
	poisonCore
}

// NewCentral returns a sense-reversing barrier for p participants.
func NewCentral(p int, opts ...Option) *CentralBarrier {
	if p < 1 {
		panic("softbarrier: need at least one participant")
	}
	o := applyOptions(opts)
	b := &CentralBarrier{p: p, local: make([]arrivalSlot, p)}
	b.gate.Init(o.policy)
	b.rec = o.recorder(p, 0)
	b.initPoison(p, o.watchdog, o.poisonNotify, b)
	return b
}

func (b *CentralBarrier) wakeWaiters() { b.gate.Poison() }

func (b *CentralBarrier) clearEpisode() {
	b.count.Store(0) // drop the aborted episode's partial arrivals
	clear(b.local)   // and the arrival counts; every id arrives before it awaits
	b.gate.Unpoison()
}

func (b *CentralBarrier) slotArrivals() []uint64 { return slotCounts(b.local) }

// Participants returns P.
func (b *CentralBarrier) Participants() int { return b.p }

// Wait blocks until all participants arrive.
func (b *CentralBarrier) Wait(id int) {
	b.Arrive(id)
	b.Await(id)
}

// Arrive increments the central counter; the last arriver flips the sense,
// releasing the episode. On a poisoned barrier it is a no-op.
func (b *CentralBarrier) Arrive(id int) {
	checkID(id, b.p)
	if b.poisoned() {
		return
	}
	b.noteArrive(id)
	sense := b.gate.Seq() // also the 0-based episode index
	b.rec.Arrive(id, sense)
	b.local[id].episode = sense
	b.local[id].arrivals++
	if b.count.Add(1) == int64(b.p) {
		b.count.Store(0)
		// Telemetry is read before the release: no participant can start
		// the next episode until the gate opens, so the slots are quiescent.
		b.rec.Release(sense, rt.Extra{})
		b.gate.Open()
	}
}

// Await blocks (spin → yield → park) until the sense flips or the barrier
// is poisoned.
func (b *CentralBarrier) Await(id int) {
	checkID(id, b.p)
	b.gate.Await(b.local[id].episode)
}

// WaitCtx is Wait with cancellation: if ctx ends while the wait is in
// flight the barrier is poisoned, and the poison error is returned.
func (b *CentralBarrier) WaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Wait(id) })
}

// AwaitCtx is Await with cancellation, with WaitCtx's poison semantics.
func (b *CentralBarrier) AwaitCtx(ctx context.Context, id int) error {
	checkID(id, b.p)
	return b.waitCtx(ctx, func() { b.Await(id) })
}

var _ PhasedBarrier = (*CentralBarrier)(nil)
var _ ContextBarrier = (*CentralBarrier)(nil)
