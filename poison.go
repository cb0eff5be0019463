package softbarrier

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	rt "softbarrier/internal/runtime"
)

// ErrPoisoned is the error a poisoned barrier reports when no more
// specific cause was given to Poison.
var ErrPoisoned = errors.New("softbarrier: barrier poisoned")

// StallError is the diagnostic a watchdog-poisoned barrier reports: an
// episode in which some participants arrived and then nothing moved for
// at least the watchdog duration. Extract it with errors.As to learn
// which participants never showed up.
type StallError struct {
	// Missing lists, in ascending order, the participant ids that had not
	// arrived at the stalled episode when the watchdog fired.
	Missing []int
	// Waited is how long the episode had made no progress.
	Waited time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("softbarrier: episode stalled for %v: participants %v have not arrived", e.Waited, e.Missing)
}

// poisonCore is the abort machinery shared by every barrier in the
// package, embedded so that Poison, Err, Reset and Close are promoted
// onto each barrier type. The barrier hands itself in at construction as
// the core's poisonHost.
type poisonCore struct {
	host   poisonHost
	notify func(error) // WithPoisonNotify hook; nil when not installed

	state  atomic.Uint32 // 0 healthy, 1 poisoned; written after err below
	mu     sync.Mutex
	wdOnce sync.Once // 4-byte aligned like mu: packed, no barrier changes size class
	err    error

	// arrived is the watchdog's atomic copy of the counts, one per
	// participant, which it polls across goroutines; nil without one, so an
	// unwatched arrival pays its algorithm's atomics and nothing else. A
	// plain slice packs eight counters to a cache line, so a poll reads p/8
	// lines. It sits behind a pointer because a membership change installs
	// fresh counters while the watchdog keeps polling.
	arrived atomic.Pointer[[]atomic.Uint64]

	wdStop chan struct{}
}

// poisonHost is what a barrier supplies its poisonCore. It is the
// barrier itself, so wiring the core allocates nothing.
type poisonHost interface {
	// wakeWaiters poisons the barrier's wait primitives (gates, cells) so
	// every parked and spinning waiter escapes.
	wakeWaiters()
	// clearEpisode reinitializes the barrier's episode state and arrival
	// counts so Reset can return it to service; quiescence only.
	clearEpisode()
	// slotArrivals reads the arrival counts kept in plain fields of the
	// barrier's slots; quiescence only.
	slotArrivals() []uint64
}

// initPoison wires the core. watchdog > 0 starts the stall detector and
// its counters; notify, when non-nil, is invoked once when poisoned.
func (c *poisonCore) initPoison(p int, watchdog time.Duration, notify func(error), host poisonHost) {
	c.host, c.notify = host, notify
	if watchdog > 0 {
		c.resizeArrived(p)
		c.wdStop = make(chan struct{})
		go c.runWatchdog(watchdog)
	}
}

// resizeArrived gives the watchdog p fresh counters, all zero. Outside
// construction it runs only where a watchdog exists, at a quiescent
// membership change.
func (c *poisonCore) resizeArrived(p int) {
	counts := make([]atomic.Uint64, p)
	c.arrived.Store(&counts)
}

// noteArrive records participant id's arrival for the watchdog, if any.
func (c *poisonCore) noteArrive(id int) {
	if a := c.arrived.Load(); a != nil {
		(*a)[id].Add(1)
	}
}

// Arrivals returns a snapshot of the per-participant arrival counters:
// element id is how many episodes participant id has arrived at since
// construction, the last Reset or membership change. It is the hook a
// remote coordinator uses to report per-client progress; the snapshot is
// taken slot by slot and is only episode-consistent at a quiescent point.
// Without a watchdog (WithWatchdog) it may also only be called at one.
func (c *poisonCore) Arrivals() []uint64 {
	a := c.arrived.Load()
	if a == nil {
		return c.host.slotArrivals()
	}
	out := make([]uint64, len(*a))
	for i := range out {
		out[i] = (*a)[i].Load()
	}
	return out
}

// arrivalSlot is a participant's own episode and arrival count, on a line of its own.
type arrivalSlot struct {
	episode, arrivals uint64
	_                 [rt.CacheLine - 16]byte
}

// slotCounts copies the slots' arrival counts.
func slotCounts(slots []arrivalSlot) []uint64 {
	out := make([]uint64, len(slots))
	for i := range slots {
		out[i] = slots[i].arrivals
	}
	return out
}

// poisoned is the hot-path check: one atomic load while healthy.
func (c *poisonCore) poisoned() bool { return c.state.Load() != 0 }

// Poison marks the barrier failed: every parked and spinning waiter
// wakes, and all future waits return immediately. Blocking calls made
// after the poisoning (Wait, Arrive, Await and the Ctx variants) are
// no-ops; Err reports the cause. The first error wins; nil selects
// ErrPoisoned. Poison is idempotent and safe from any goroutine,
// including concurrently with waits and releases.
func (c *poisonCore) Poison(err error) {
	if err == nil {
		err = ErrPoisoned
	}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	c.mu.Unlock()
	// Publish the flag only after the error is in place, so any waiter
	// that observes the poisoned state finds a non-nil Err.
	c.state.Store(1)
	c.host.wakeWaiters()
	// Notify after the local waiters are released: the hook typically does
	// I/O (a networked barrier broadcasting the cause), and nothing it can
	// observe regresses — state and err are already published. Only the
	// goroutine that won the first-poison race runs it, so the hook fires
	// exactly once per poisoning.
	if c.notify != nil {
		c.notify(err)
	}
}

// Err returns the poison error, or nil while the barrier is healthy.
func (c *poisonCore) Err() error {
	if !c.poisoned() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Reset returns a poisoned barrier to service. It may only be called at a
// quiescent point: no Wait/Arrive/Await (or Ctx variant) in flight, and
// every previously woken participant returned. Episode state is
// reinitialized; a watchdog installed with WithWatchdog resumes
// monitoring.
func (c *poisonCore) Reset() {
	c.host.clearEpisode()
	if a := c.arrived.Load(); a != nil {
		for i := range *a {
			(*a)[i].Store(0)
		}
	}
	c.mu.Lock()
	c.err = nil
	c.mu.Unlock()
	c.state.Store(0)
}

// Close stops the watchdog goroutine installed by WithWatchdog; barriers
// built without one need no Close. Close does not poison the barrier —
// in-flight episodes complete normally, it only ends stall monitoring.
func (c *poisonCore) Close() {
	if c.wdStop != nil {
		c.wdOnce.Do(func() { close(c.wdStop) })
	}
}

// runWatchdog polls the arrival counters a few times per period d. An
// episode is stalled when the counters are frozen while unequal: someone
// arrived (its count leads) and the others made no progress. Frozen-equal
// counters mean the barrier is idle between episodes — participants off
// doing step work arbitrarily long — which is never poisoned, and a
// membership change (a new number of counters) is progress. After d of
// no movement the core is poisoned with a StallError naming the absent
// ids, so the error that unblocks everyone says who to go debug.
func (c *poisonCore) runWatchdog(d time.Duration) {
	tick := d / 4
	if tick < 100*time.Microsecond {
		tick = 100 * time.Microsecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var prev []uint64  // the counts the previous poll read
	last := time.Now() // when progress (or quiescence) was last observed
	for {
		select {
		case <-c.wdStop:
			return
		case <-ticker.C:
		}
		if c.poisoned() {
			last = time.Now()
			continue
		}
		counts := *c.arrived.Load()
		changed := len(prev) != len(counts)
		if changed {
			prev = make([]uint64, len(counts))
		}
		hi := uint64(0)
		for i := range counts {
			v := counts[i].Load()
			changed = changed || v != prev[i]
			prev[i], hi = v, max(hi, v)
		}
		var missing []int // frozen: who the leading count waits for
		for id, v := range prev {
			if v < hi && !changed {
				missing = append(missing, id)
			}
		}
		if missing == nil { // progress, or idle between episodes
			last = time.Now()
			continue
		}
		if stalled := time.Since(last); stalled >= d {
			c.Poison(&StallError{Missing: missing, Waited: stalled})
		}
	}
}

// waitCtx wraps a blocking wait with cancellation: if ctx is cancelled or
// times out while the wait is in flight, the whole barrier is poisoned
// with ctx's error — the cancelled participant will not arrive (or stops
// awaiting), so poisoning is the only way the other participants can
// learn the episode is dead rather than parking forever.
func (c *poisonCore) waitCtx(ctx context.Context, wait func()) error {
	if err := c.Err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		c.Poison(err)
		return c.Err()
	}
	stop := context.AfterFunc(ctx, func() { c.Poison(ctx.Err()) })
	wait()
	stop()
	return c.Err()
}

// Poison causes cross process boundaries: a networked barrier that aborts
// an episode must hand every remote waiter the cause, not just "poisoned".
// EncodePoisonCause renders an error in a compact, wire-stable binary form
// and DecodePoisonCause reconstructs it with its identity intact: a
// *StallError round-trips field for field (errors.As works across the
// wire), and ErrPoisoned, context.Canceled and context.DeadlineExceeded
// round-trip as the same sentinel values (errors.Is works). Any other
// error is carried as its message and decodes to an opaque error with
// that text.
const (
	causeGeneric  = 0x00
	causePoisoned = 0x01
	causeStall    = 0x02
	causeCanceled = 0x03
	causeDeadline = 0x04
)

// EncodePoisonCause appends the wire form of err to dst and returns the
// result. A nil err encodes like ErrPoisoned. Messages and missing-id
// lists are truncated to 64 KiB / 65535 entries, far beyond any real
// cause.
func EncodePoisonCause(dst []byte, err error) []byte {
	var stall *StallError
	switch {
	case err == nil, errors.Is(err, ErrPoisoned):
		return append(dst, causePoisoned)
	case errors.Is(err, context.Canceled):
		return append(dst, causeCanceled)
	case errors.Is(err, context.DeadlineExceeded):
		return append(dst, causeDeadline)
	case errors.As(err, &stall):
		n := len(stall.Missing)
		if n > 0xffff {
			n = 0xffff
		}
		dst = append(dst, causeStall, byte(n>>8), byte(n))
		for _, id := range stall.Missing[:n] {
			dst = append(dst, byte(uint32(id)>>24), byte(uint32(id)>>16), byte(uint32(id)>>8), byte(uint32(id)))
		}
		w := uint64(stall.Waited)
		for s := 56; s >= 0; s -= 8 {
			dst = append(dst, byte(w>>s))
		}
		return dst
	default:
		msg := err.Error()
		if len(msg) > 0xffff {
			msg = msg[:0xffff]
		}
		dst = append(dst, causeGeneric, byte(len(msg)>>8), byte(len(msg)))
		return append(dst, msg...)
	}
}

// DecodePoisonCause reconstructs a poison cause encoded by
// EncodePoisonCause. It is total: malformed input decodes to a generic
// error describing the malformation rather than failing, because the one
// thing a poison channel must never do is deliver nothing.
func DecodePoisonCause(b []byte) error {
	if len(b) == 0 {
		return ErrPoisoned
	}
	switch b[0] {
	case causePoisoned:
		return ErrPoisoned
	case causeCanceled:
		return context.Canceled
	case causeDeadline:
		return context.DeadlineExceeded
	case causeStall:
		if len(b) < 3 {
			return fmt.Errorf("softbarrier: malformed stall cause (%d bytes)", len(b))
		}
		n := int(b[1])<<8 | int(b[2])
		rest := b[3:]
		if len(rest) != 4*n+8 {
			return fmt.Errorf("softbarrier: malformed stall cause (%d ids, %d payload bytes)", n, len(rest))
		}
		st := &StallError{Missing: make([]int, n)}
		for i := 0; i < n; i++ {
			v := uint32(rest[0])<<24 | uint32(rest[1])<<16 | uint32(rest[2])<<8 | uint32(rest[3])
			st.Missing[i] = int(int32(v))
			rest = rest[4:]
		}
		w := uint64(0)
		for _, c := range rest[:8] {
			w = w<<8 | uint64(c)
		}
		st.Waited = time.Duration(w)
		return st
	case causeGeneric:
		if len(b) < 3 || len(b[3:]) != int(b[1])<<8|int(b[2]) {
			return fmt.Errorf("softbarrier: malformed generic cause (%d bytes)", len(b))
		}
		return errors.New(string(b[3:]))
	default:
		return fmt.Errorf("softbarrier: unknown poison cause tag %#02x", b[0])
	}
}
