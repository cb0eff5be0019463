package softbarrier

import (
	"time"

	rt "softbarrier/internal/runtime"
)

// Option configures a barrier at construction. Every constructor in this
// package accepts options; an option that does not apply to a particular
// barrier (WithPlacementPolicy on a barrier that never rebuilds) is ignored.
type Option func(*options)

// options is the merged configuration shared by all constructors.
type options struct {
	observer     Observer
	policy       rt.WaitPolicy
	clock        func() int64
	watchdog     time.Duration
	poisonNotify func(error)
	collective   *rt.Op
	placement    PlacementPolicy
}

func applyOptions(opts []Option) options {
	o := options{policy: rt.DefaultWaitPolicy()}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// recorder builds the barrier's episode recorder. every is how often a
// barrier whose own control loop reads the measurements needs one when no
// observer is installed (rt.New); with every 0 and no observer the result
// is nil, the allocation-free disabled path.
func (o options) recorder(p int, every uint64) *rt.Recorder {
	return rt.New(p, o.observer, o.clock, every)
}

// WithObserver installs obs to receive one EpisodeStats per completed
// episode: episode index, first/last arrival, measured spread σ, sync
// delay, and the barrier's swap count, degree and epoch. Without this
// option the telemetry path is disabled entirely and costs nothing per
// episode.
func WithObserver(obs Observer) Option {
	return func(o *options) { o.observer = obs }
}

// WithWatchdog arms a stall detector on the barrier: a background
// goroutine watches per-participant arrival counters and, once an episode
// has made no progress for at least d while some participants have
// arrived and others have not, poisons the barrier with a *StallError
// naming the absent participant ids. An idle barrier (no episode open) is
// never poisoned, so d bounds the tolerated arrival spread, not the step
// length between episodes. Call Close when the barrier is done with to
// release the goroutine; d <= 0 disables the watchdog. Its counters cost
// each arrival an atomic add on a shared line, and let Arrivals be called
// at any time; without a watchdog it may only be called at a quiescent point.
func WithWatchdog(d time.Duration) Option {
	return func(o *options) { o.watchdog = d }
}

// WithPoisonNotify installs fn to be called exactly once when the barrier
// is poisoned — by Poison, a context cancellation, or the WithWatchdog
// stall detector — with the cause as its argument. The hook runs on the
// poisoning goroutine after local waiters have been woken, so it may block
// (a networked coordinator uses it to broadcast the wire-encoded cause to
// remote waiters) without delaying the local release. After Reset, the
// next poisoning notifies again.
func WithPoisonNotify(fn func(error)) Option {
	return func(o *options) { o.poisonNotify = fn }
}

// WithCollective arms the barrier's payload path: episodes may then carry
// op.Width-byte contributions through AllReduce / Reduce / Broadcast (see
// Collective), folded by op. Driven only through Wait, a barrier built
// with a non-commutative op runs the same zero-payload path as one built
// without it; with a commutative op each plain arrival also puts the op's
// identity in its input cell, which its counter's completer folds, so an
// episode mixing Wait and ArriveReduce completes. The option panics at
// construction on an invalid op (zero width, nil fold, mis-sized
// identity); barriers that do not implement Collective ignore it.
func WithCollective(op Op) Option {
	return func(o *options) { o.collective = &op }
}

// reducer builds the barrier's payload reducer for p participants over a
// tree with the given number of inputs, or nil when WithCollective was not
// given.
func (o options) reducer(p, inputs int) *rt.Reducer {
	if o.collective == nil {
		return nil
	}
	return rt.NewReducer(*o.collective, p, inputs)
}

// withClock overrides the telemetry clock (tests only).
func withClock(clock func() int64) Option {
	return func(o *options) { o.clock = clock }
}

// withWaitPolicy overrides the waiter's spin→yield→park budgets (tests
// only): rt.WaitPolicy{} parks at once, which keeps a test that blocks
// waiters from burning its CPU.
func withWaitPolicy(p rt.WaitPolicy) Option {
	return func(o *options) { o.policy = p }
}
