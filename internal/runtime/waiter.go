// Package runtime is the shared wait/instrumentation core under every
// barrier in the root softbarrier package. It provides:
//
//   - a tuned waiter primitive with a bounded spin → yield → park policy
//     (Gate for broadcast releases, Cell for single-waiter signalling),
//     replacing the per-barrier ad-hoc spin loops and sync.Cond paths;
//   - cache-line-padded per-participant arrival timestamps (PaddedInt64);
//   - per-episode arrival telemetry (Observer, EpisodeStats, Recorder)
//     with a nil-recorder fast path that costs nothing on the hot path;
//   - the EWMA σ estimator (SigmaEstimator) the adaptive barrier and the
//     planner's measured profiles consume.
package runtime

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// WaitPolicy bounds the phases a waiter goes through before it parks:
// Spin busy-polls on the watched atomic, Yield interleaves polls with
// runtime.Gosched(), and after both budgets are exhausted the waiter parks
// on a blocking primitive until the signaller wakes it. The zero value
// parks immediately; DefaultWaitPolicy is the tuned hybrid.
type WaitPolicy struct {
	// Spin is the number of busy-poll iterations before yielding.
	Spin int
	// Yield is the number of poll+Gosched iterations before parking.
	Yield int
}

// DefaultWaitPolicy returns the tuned hybrid policy: a short busy-poll for
// arrivals already in flight, a yielding phase that keeps the scheduler fed
// on oversubscribed hosts, then a park so waiters stop burning CPU. On a
// single-P runtime busy-polling can never observe progress (the signaller
// cannot be running), so the spin phase is skipped — the same multicore
// gate the Go runtime applies to its own active spinning.
func DefaultWaitPolicy() WaitPolicy {
	if runtime.GOMAXPROCS(0) == 1 {
		return WaitPolicy{Spin: 0, Yield: 128}
	}
	return WaitPolicy{Spin: 128, Yield: 128}
}

// PaddedInt64 is an int64 on its own cache line, for owner-written
// per-participant slots (arrival timestamps).
type PaddedInt64 struct {
	V int64
	_ [56]byte
}

// GatePoisonBit is the high bit of the gate's generation word. Poison sets
// it (and nothing ever clears it short of Unpoison), so a single atomic
// load distinguishes "generation advanced" from "barrier poisoned" on the
// wait fast path; episode indices live in the low 63 bits and can never
// carry into it.
const GatePoisonBit = uint64(1) << 63

// Gate is the broadcast half of a sense-reversing barrier: a monotone
// generation counter that waiters watch and the episode's releaser bumps.
// Await runs the spin→yield→park progression; parked waiters block on a
// condition variable the releaser broadcasts. The zero Gate must be
// prepared with Init before use.
//
// A gate can be poisoned: Poison sets the generation word's high bit,
// which wakes every parked and spinning waiter and makes all future
// Awaits return immediately, whatever generation they sampled. Open keeps
// working on a poisoned gate (the bit is sticky under the low-bits
// increment), so release paths racing with an abort need no special
// casing.
type Gate struct {
	seq atomic.Uint64
	_   [56]byte // keep the hot counter off the mutex's cache line

	policy WaitPolicy
	mu     sync.Mutex
	cond   *sync.Cond
}

// Init prepares the gate with the given wait policy.
func (g *Gate) Init(p WaitPolicy) {
	g.policy = p
	g.cond = sync.NewCond(&g.mu)
}

// Seq returns the current generation. A participant samples it on arrival
// and passes the sample to Await; it also doubles as the 0-based episode
// index while the episode is open.
func (g *Gate) Seq() uint64 { return g.seq.Load() }

// Open releases the current generation: it bumps the counter and wakes
// every parked waiter, returning the new generation. Only the episode's
// releasing participant may call it.
func (g *Gate) Open() uint64 {
	// The bump happens under the mutex so a waiter that re-checked the
	// generation while holding it cannot miss the broadcast.
	g.mu.Lock()
	n := g.seq.Add(1)
	g.cond.Broadcast()
	g.mu.Unlock()
	return n
}

// released reports whether a waiter that sampled generation mine may stop
// waiting: the generation moved on, or the gate is poisoned (the bit check
// also covers a sample taken after the poisoning, for which s == mine).
func released(s, mine uint64) bool {
	return s != mine || s&GatePoisonBit != 0
}

// Await blocks until the generation differs from mine, spinning and
// yielding within the policy's budgets before parking. It also returns —
// immediately, for a post-poison sample — when the gate is poisoned.
func (g *Gate) Await(mine uint64) {
	for i := 0; i <= g.policy.Spin; i++ {
		if released(g.seq.Load(), mine) {
			return
		}
	}
	for i := 0; i < g.policy.Yield; i++ {
		runtime.Gosched()
		if released(g.seq.Load(), mine) {
			return
		}
	}
	g.mu.Lock()
	for !released(g.seq.Load(), mine) {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Poison sets the generation's poison bit and wakes every parked waiter.
// It is idempotent and safe to call concurrently with Open and Await.
func (g *Gate) Poison() {
	g.mu.Lock()
	for {
		s := g.seq.Load()
		if s&GatePoisonBit != 0 || g.seq.CompareAndSwap(s, s|GatePoisonBit) {
			break
		}
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// Unpoison clears the poison bit, restoring the pre-poison generation.
// Only meaningful at a quiescent point: no Await may be in flight.
func (g *Gate) Unpoison() {
	g.mu.Lock()
	for {
		s := g.seq.Load()
		if s&GatePoisonBit == 0 || g.seq.CompareAndSwap(s, s&^GatePoisonBit) {
			break
		}
	}
	g.mu.Unlock()
}

// PoisonValue is the cell poison sentinel: the maximum uint64. Because
// cell waits are of the form "value ≥ target" and episode numbers are
// small, publishing it wakes any waiter whatever its target and makes all
// future waits return immediately — a waiter distinguishes a poison wake
// from a real release by comparing AwaitAtLeast's result against it.
const PoisonValue = ^uint64(0)

// Cell is a cache-line-padded signalling slot carrying a monotonically
// increasing value, with park support for a single waiter — the building
// block for dissemination/tournament round flags. Writers publish with
// Set; the (single) waiter blocks with AwaitAtLeast. A Cell must be
// prepared with Init (or InitCells) before use and must not be copied
// afterwards.
//
// Set enforces the monotone contract, so Poison — which publishes the
// maximal PoisonValue — is sticky even against a signaller racing with
// the abort.
type Cell struct {
	v      atomic.Uint64
	parked atomic.Uint32
	_      [4]byte
	wake   chan struct{}
	_      [40]byte
}

// Init allocates the cell's wakeup channel.
func (c *Cell) Init() { c.wake = make(chan struct{}, 1) }

// InitCells initializes every cell of a freshly allocated slice.
func InitCells(cells []Cell) {
	for i := range cells {
		cells[i].Init()
	}
}

// Set publishes v and wakes the parked waiter, if any. Values are
// monotone: a v at or below the current value is ignored, which keeps a
// racing signaller from ever lowering the slot — in particular from
// un-poisoning it.
func (c *Cell) Set(v uint64) {
	for {
		cur := c.v.Load()
		if cur >= v || c.v.CompareAndSwap(cur, v) {
			break
		}
	}
	// The waiter announces itself (parked=1) before re-checking the value,
	// and sync/atomic is sequentially consistent, so either we observe the
	// announcement here or the waiter's re-check observes our store.
	if c.parked.Load() != 0 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// Poison publishes PoisonValue: the parked or spinning waiter wakes, and
// every future AwaitAtLeast returns immediately (with PoisonValue).
func (c *Cell) Poison() { c.Set(PoisonValue) }

// Reset returns the cell to its initial state (value 0, no pending wakeup
// token). Only meaningful at a quiescent point: no waiter in flight.
func (c *Cell) Reset() {
	c.v.Store(0)
	c.parked.Store(0)
	select {
	case <-c.wake:
	default:
	}
}

// AwaitAtLeast blocks until the cell's value reaches target, returning the
// value observed. Only one goroutine may wait on a cell at a time.
func (c *Cell) AwaitAtLeast(target uint64, p WaitPolicy) uint64 {
	for i := 0; i <= p.Spin; i++ {
		if v := c.v.Load(); v >= target {
			return v
		}
	}
	for i := 0; i < p.Yield; i++ {
		runtime.Gosched()
		if v := c.v.Load(); v >= target {
			return v
		}
	}
	for {
		c.parked.Store(1)
		if v := c.v.Load(); v >= target {
			c.parked.Store(0)
			// Drain a token raced in by the signaller so it cannot wake
			// the next episode's wait spuriously. (A leftover token is
			// harmless anyway — the park loop re-checks the value — but
			// draining keeps wakeups tight.)
			select {
			case <-c.wake:
			default:
			}
			return v
		}
		<-c.wake
	}
}
