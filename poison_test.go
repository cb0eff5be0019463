package softbarrier

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rt "softbarrier/internal/runtime"
)

// abortableVariants enumerates every root barrier type (plus the MCS
// and ring-constrained variants) under a fixed participant count,
// so the poison / watchdog / cancellation contracts are pinned uniformly.
// The opts slice is copied before appending so table entries never alias
// each other's backing arrays.
func abortableVariants(p int, opts ...Option) []struct {
	name  string
	build func() ContextBarrier
} {
	mk := func(f func(o []Option) ContextBarrier) func() ContextBarrier {
		own := append([]Option(nil), opts...)
		return func() ContextBarrier { return f(own) }
	}
	return []struct {
		name  string
		build func() ContextBarrier
	}{
		{"central", mk(func(o []Option) ContextBarrier { return NewCentral(p, o...) })},
		{"tree-gate", mk(func(o []Option) ContextBarrier { return NewCombiningTree(p, 2, o...) })},
		{"mcs", mk(func(o []Option) ContextBarrier { return NewMCSTree(p, 2, o...) })},
		{"tournament", mk(func(o []Option) ContextBarrier { return NewTournament(p, o...) })},
		{"dissemination", mk(func(o []Option) ContextBarrier { return NewDissemination(p, o...) })},
		{"dynamic", mk(func(o []Option) ContextBarrier { return NewDynamic(p, 2, o...) })},
		{"dynamic-ring", mk(func(o []Option) ContextBarrier {
			return NewDynamicRing([]int{p / 2, p - p/2}, 2, o...)
		})},
		{"adaptive", mk(func(o []Option) ContextBarrier { return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 8}, o...) })},
	}
}

// runHealthyEpisodes drives n full episodes with every participant, to
// prove a barrier is (still) operational.
func runHealthyEpisodes(t *testing.T, b ContextBarrier, n int) {
	t.Helper()
	p := b.Participants()
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for e := 0; e < n; e++ {
				b.Wait(id)
			}
		}(id)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("healthy episodes deadlocked")
	}
	if err := b.Err(); err != nil {
		t.Fatalf("healthy episodes poisoned the barrier: %v", err)
	}
}

// TestPoisonUnblocksWaiters is the core abort contract: participants
// parked in an episode that will never complete (one participant is
// missing) all release promptly once the barrier is poisoned, Err reports
// the cause, and every subsequent Wait returns immediately.
func TestPoisonUnblocksWaiters(t *testing.T) {
	const p = 4
	cause := errors.New("test: abandon ship")
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			var wg sync.WaitGroup
			wg.Add(p - 1)
			for id := 0; id < p-1; id++ { // participant p-1 never arrives
				go func(id int) {
					defer wg.Done()
					b.Wait(id)
				}(id)
			}
			time.Sleep(5 * time.Millisecond) // let the waiters park
			b.Poison(cause)

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("poison did not release the parked waiters")
			}
			if err := b.Err(); !errors.Is(err, cause) {
				t.Fatalf("Err() = %v, want %v", err, cause)
			}

			// All future waits — including the straggler's — return at once.
			quick := make(chan struct{})
			go func() {
				for id := 0; id < p; id++ {
					b.Wait(id)
				}
				close(quick)
			}()
			select {
			case <-quick:
			case <-time.After(5 * time.Second):
				t.Fatal("Wait on a poisoned barrier blocked")
			}

			// First error wins: a second Poison must not overwrite it.
			b.Poison(errors.New("test: too late"))
			if err := b.Err(); !errors.Is(err, cause) {
				t.Fatalf("second Poison overwrote the error: %v", err)
			}
		})
	}
}

// TestPoisonResetRestoresBarrier checks that Reset at a quiescent point
// clears the poison and the barrier completes full episodes again.
func TestPoisonResetRestoresBarrier(t *testing.T) {
	const p = 4
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			runHealthyEpisodes(t, b, 3)

			// Strand an episode, poison it, drain the waiters.
			var wg sync.WaitGroup
			wg.Add(p - 1)
			for id := 0; id < p-1; id++ {
				go func(id int) {
					defer wg.Done()
					b.Wait(id)
				}(id)
			}
			time.Sleep(2 * time.Millisecond)
			b.Poison(errors.New("test: stranded"))
			wg.Wait()

			r, ok := b.(interface{ Reset() })
			if !ok {
				t.Fatal("barrier does not expose Reset")
			}
			r.Reset()
			if err := b.Err(); err != nil {
				t.Fatalf("Err() after Reset = %v", err)
			}
			runHealthyEpisodes(t, b, 3)
		})
	}
}

// TestWaitCtxCancelPoisons checks context-aware waits: cancelling the
// context of one blocked participant poisons the whole episode, so every
// sibling (plain Wait or WaitCtx alike) releases, and the context error is
// what WaitCtx and Err report.
func TestWaitCtxCancelPoisons(t *testing.T) {
	const p = 4
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			ctx, cancel := context.WithCancel(context.Background())
			errs := make([]error, p-1)
			var wg sync.WaitGroup
			wg.Add(p - 1) // participant p-1 never arrives
			for id := 0; id < p-1; id++ {
				go func(id int) {
					defer wg.Done()
					errs[id] = b.WaitCtx(ctx, id)
				}(id)
			}
			time.Sleep(5 * time.Millisecond) // let the waiters block
			cancel()

			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("cancellation did not release the waiters")
			}
			for id, err := range errs {
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("worker %d: WaitCtx = %v, want context.Canceled", id, err)
				}
			}
			if err := b.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Err() = %v, want context.Canceled", err)
			}
		})
	}
}

// TestWaitCtxPreCancelled checks that a context that is already dead
// poisons the barrier without ever entering the wait: the caller was never
// going to arrive, so letting the others park would strand them.
func TestWaitCtxPreCancelled(t *testing.T) {
	const p = 4
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := b.WaitCtx(ctx, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("WaitCtx(dead ctx) = %v, want context.Canceled", err)
			}
			if err := b.Err(); !errors.Is(err, context.Canceled) {
				t.Fatalf("Err() = %v, want context.Canceled", err)
			}
		})
	}
}

// TestWaitCtxCompletesNormally checks the non-cancellation path: with
// every participant arriving, WaitCtx behaves exactly like Wait and
// returns nil with the context still live.
func TestWaitCtxCompletesNormally(t *testing.T) {
	const p = 4
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			ctx := context.Background()
			for e := 0; e < 3; e++ {
				var wg sync.WaitGroup
				wg.Add(p)
				errs := make([]error, p)
				for id := 0; id < p; id++ {
					go func(id int) {
						defer wg.Done()
						errs[id] = b.WaitCtx(ctx, id)
					}(id)
				}
				wg.Wait()
				for id, err := range errs {
					if err != nil {
						t.Fatalf("episode %d worker %d: WaitCtx = %v", e, id, err)
					}
				}
			}
			if err := b.Err(); err != nil {
				t.Fatalf("Err() = %v after healthy WaitCtx episodes", err)
			}
		})
	}
}

// TestWatchdogPoisonsStalledEpisode checks the deadlock watchdog: healthy
// episodes never trip it, but an episode missing one participant is
// poisoned with a StallError naming exactly the absent ids, releasing
// everyone parked.
func TestWatchdogPoisonsStalledEpisode(t *testing.T) {
	const p = 4
	const missing = 3
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{}), WithWatchdog(75*time.Millisecond)) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			defer b.(interface{ Close() }).Close()
			runHealthyEpisodes(t, b, 3)

			var wg sync.WaitGroup
			wg.Add(p - 1)
			for id := 0; id < p; id++ {
				if id == missing {
					continue
				}
				go func(id int) {
					defer wg.Done()
					b.Wait(id)
				}(id)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("watchdog never released the stalled episode")
			}
			var stall *StallError
			if err := b.Err(); !errors.As(err, &stall) {
				t.Fatalf("Err() = %v, want a *StallError", err)
			}
			if len(stall.Missing) != 1 || stall.Missing[0] != missing {
				t.Fatalf("StallError.Missing = %v, want [%d]", stall.Missing, missing)
			}
			if stall.Waited <= 0 {
				t.Fatalf("StallError.Waited = %v, want > 0", stall.Waited)
			}
		})
	}
}

// TestWatchdogIdleBarrierNotPoisoned checks the flip side: a barrier that
// is simply idle (no episode in flight) must never be poisoned, no matter
// how long the watchdog watches it.
func TestWatchdogIdleBarrierNotPoisoned(t *testing.T) {
	const p = 4
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{}), WithWatchdog(20*time.Millisecond)) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			defer b.(interface{ Close() }).Close()
			runHealthyEpisodes(t, b, 2)
			time.Sleep(150 * time.Millisecond) // many watchdog periods of idleness
			if err := b.Err(); err != nil {
				t.Fatalf("idle barrier poisoned: %v", err)
			}
			runHealthyEpisodes(t, b, 2)
		})
	}
}

// idleHost is a poisonHost with nothing to wake or clear, for a bare core.
type idleHost struct{}

func (idleHost) wakeWaiters()           {}
func (idleHost) clearEpisode()          {}
func (idleHost) slotArrivals() []uint64 { return nil }

// TestWatchdogScanAndResize drives the watchdog's poll on a bare core over
// nine counters: equal counts mean idle, counts frozen while unequal are a
// stall naming everyone behind the leader, and a membership change is
// progress that restarts the stall clock and is read at its new width.
func TestWatchdogScanAndResize(t *testing.T) {
	const d = 40 * time.Millisecond
	watched := func(p int) *poisonCore {
		c := &poisonCore{}
		c.initPoison(p, d, nil, idleHost{})
		t.Cleanup(c.Close)
		return c
	}
	// stall waits for the watchdog's poison and returns its cause.
	stall := func(t *testing.T, c *poisonCore) *StallError {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for c.Err() == nil {
			if time.Now().After(deadline) {
				t.Fatal("the watchdog never poisoned a frozen, unequal episode")
			}
			time.Sleep(d / 8)
		}
		var st *StallError
		if !errors.As(c.Err(), &st) {
			t.Fatalf("Err() = %v, want a *StallError", c.Err())
		}
		return st
	}
	except := func(p, id int) []int {
		var ids []int
		for i := 0; i < p; i++ {
			if i != id {
				ids = append(ids, i)
			}
		}
		return ids
	}

	t.Run("equal counts mean idle", func(t *testing.T) {
		t.Parallel()
		c := watched(9)
		for id := 0; id < 9; id++ {
			c.noteArrive(id)
		}
		time.Sleep(5 * d)
		if err := c.Err(); err != nil {
			t.Fatalf("idle counters poisoned: %v", err)
		}
	})

	t.Run("frozen while unequal is a stall", func(t *testing.T) {
		t.Parallel()
		c := watched(9)
		c.noteArrive(3)
		st := stall(t, c)
		if !slices.Equal(st.Missing, except(9, 3)) {
			t.Fatalf("Missing = %v, want everyone but 3", st.Missing)
		}
		if st.Waited < d {
			t.Fatalf("Waited = %v, below the watchdog's %v", st.Waited, d)
		}
	})

	t.Run("resize counts as progress", func(t *testing.T) {
		t.Parallel()
		c := watched(9)
		c.noteArrive(3)
		time.Sleep(d / 2)
		// No poll can have seen d without progress yet: the poll after the
		// arrival saw it move.
		if err := c.Err(); err != nil {
			t.Fatalf("poisoned after %v of a %v watchdog: %v", d/2, d, err)
		}
		resized := time.Now()
		c.resizeArrived(17)
		c.noteArrive(16)
		st := stall(t, c)
		if !slices.Equal(st.Missing, except(17, 16)) {
			t.Fatalf("Missing = %v, want the new membership but 16", st.Missing)
		}
		if since := time.Since(resized); st.Waited > since {
			t.Fatalf("Waited = %v, longer than the %v since the resize: the stall clock did not restart", st.Waited, since)
		}
	})
}

// TestGroupPoisonOnPanicHeals checks the Group rewiring: a panicking
// worker poisons the barrier (so parked siblings release instead of
// deadlocking), the panic re-raises from Run, and the barrier is healed —
// the same Group runs cleanly afterwards.
func TestGroupPoisonOnPanicHeals(t *testing.T) {
	const p, steps = 4, 5
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			g := NewGroup(b)
			func() {
				defer func() {
					if r := recover(); r != "kaboom" {
						t.Fatalf("recovered %v, want the worker's panic", r)
					}
				}()
				g.Run(steps, func(id, step int) {
					if id == 2 && step == 1 {
						panic("kaboom")
					}
				})
				t.Fatal("Run returned instead of panicking")
			}()
			if err := b.Err(); err != nil {
				t.Fatalf("barrier still poisoned after Run returned: %v", err)
			}
			g.Run(steps, func(id, step int) {}) // group is reusable
		})
	}
}

// TestGroupPoisonOnErrorHeals is the RunErr analogue: a failing worker
// poisons the barrier mid-run, the error comes back, the barrier heals.
func TestGroupPoisonOnErrorHeals(t *testing.T) {
	const p, steps = 4, 5
	wantErr := errors.New("test: worker failure")
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			g := NewGroup(b)
			err := g.RunErr(steps, func(id, step int) error {
				if id == 1 && step == 2 {
					return wantErr
				}
				return nil
			})
			if !errors.Is(err, wantErr) {
				t.Fatalf("RunErr = %v, want %v", err, wantErr)
			}
			if err := b.Err(); err != nil {
				t.Fatalf("barrier still poisoned after RunErr: %v", err)
			}
			if err := g.RunErr(steps, func(id, step int) error { return nil }); err != nil {
				t.Fatalf("healed group failed: %v", err)
			}
		})
	}
}

// TestGroupExternalPoisonPropagates checks that a poison the group did not
// inject itself — here, applied before the run even starts — is treated as
// fatal: RunErr returns it, and it stays sticky (no heal).
func TestGroupExternalPoisonPropagates(t *testing.T) {
	const p, steps = 4, 5
	cause := errors.New("test: external abort")
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			b.Poison(cause)
			g := NewGroup(b)
			if err := g.RunErr(steps, func(id, step int) error { return nil }); !errors.Is(err, cause) {
				t.Fatalf("RunErr = %v, want the external poison %v", err, cause)
			}
			if err := b.Err(); !errors.Is(err, cause) {
				t.Fatalf("external poison was healed away: %v", err)
			}
		})
	}
}

// TestGroupExternalPoisonPanicsRun is the Run analogue of the external
// poison contract: mid-run poison from outside stops the pool and
// re-raises as a panic carrying the poison error.
func TestGroupExternalPoisonPanicsRun(t *testing.T) {
	const p = 4
	cause := errors.New("test: operator abort")
	for _, v := range abortableVariants(p, withWaitPolicy(rt.WaitPolicy{})) {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			g := NewGroup(b)
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !errors.Is(err, cause) {
					t.Fatalf("recovered %v, want the poison error", r)
				}
			}()
			g.Run(1000, func(id, step int) {
				if id == 0 && step == 3 {
					b.Poison(cause)
				}
			})
			t.Fatal("Run returned despite external poison")
		})
	}
}

// TestPoisonConcurrentWithArrivals hammers Poison against a full episode
// load: p participants loop Wait while an outside goroutine poisons
// mid-flight. Nothing may deadlock and every participant must exit.
// Primarily a -race target.
func TestPoisonConcurrentWithArrivals(t *testing.T) {
	const p = 4
	for _, v := range abortableVariants(p) { // default spin/yield/park policy
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			b := v.build()
			var wg sync.WaitGroup
			wg.Add(p)
			for id := 0; id < p; id++ {
				go func(id int) {
					defer wg.Done()
					for e := 0; e < 200; e++ {
						b.Wait(id)
						if b.Err() != nil {
							return
						}
					}
				}(id)
			}
			go func() {
				time.Sleep(500 * time.Microsecond)
				b.Poison(fmt.Errorf("test: concurrent poison"))
			}()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("concurrent poison deadlocked the pool")
			}
		})
	}
}

// TestPoisonCauseRoundTrip pins the wire codec: causes keep their
// identity across EncodePoisonCause / DecodePoisonCause, so errors.Is and
// errors.As work on the far side of a network hop exactly as they do
// in-process.
func TestPoisonCauseRoundTrip(t *testing.T) {
	st := &StallError{Missing: []int{3, 17}, Waited: 1500 * time.Millisecond}
	var back *StallError
	if got := DecodePoisonCause(EncodePoisonCause(nil, st)); !errors.As(got, &back) {
		t.Fatalf("stall cause decoded to %T (%v), want *StallError", got, got)
	}
	if len(back.Missing) != 2 || back.Missing[0] != 3 || back.Missing[1] != 17 || back.Waited != st.Waited {
		t.Errorf("stall fields changed on the wire: %+v, want %+v", back, st)
	}
	// A wrapped stall still travels as a stall.
	wrapped := fmt.Errorf("episode 9: %w", st)
	if got := DecodePoisonCause(EncodePoisonCause(nil, wrapped)); !errors.As(got, &back) {
		t.Errorf("wrapped stall decoded to %T, want *StallError", got)
	}

	for _, c := range []struct {
		in   error
		want error
	}{
		{nil, ErrPoisoned},
		{ErrPoisoned, ErrPoisoned},
		{fmt.Errorf("run: %w", ErrPoisoned), ErrPoisoned},
		{context.Canceled, context.Canceled},
		{context.DeadlineExceeded, context.DeadlineExceeded},
	} {
		if got := DecodePoisonCause(EncodePoisonCause(nil, c.in)); !errors.Is(got, c.want) {
			t.Errorf("EncodePoisonCause(%v) decoded to %v, want errors.Is %v", c.in, got, c.want)
		}
	}

	generic := errors.New("worker 3 exploded")
	if got := DecodePoisonCause(EncodePoisonCause(nil, generic)); got == nil || got.Error() != generic.Error() {
		t.Errorf("generic cause decoded to %v, want message %q", got, generic.Error())
	}
}

// TestDecodePoisonCauseTotal: the decoder must never fail or panic —
// a poison channel that delivers nothing is a hang. Malformed bytes
// decode to a descriptive generic error instead.
func TestDecodePoisonCauseTotal(t *testing.T) {
	if got := DecodePoisonCause(nil); !errors.Is(got, ErrPoisoned) {
		t.Errorf("empty cause = %v, want ErrPoisoned", got)
	}
	for _, b := range [][]byte{
		{causeStall},                   // stall missing count
		{causeStall, 0, 1},             // stall missing ids
		{causeStall, 0, 1, 0, 0, 0, 5}, // stall missing waited
		{causeGeneric, 0xff, 0xff},     // generic length overruns
		{causeGeneric, 0, 1},           // generic message truncated
		{causeGeneric, 0, 1, 'a', 'b'}, // generic trailing garbage
		{0x77},                         // unknown tag
	} {
		if got := DecodePoisonCause(b); got == nil {
			t.Errorf("malformed cause %v decoded to nil", b)
		}
	}
}

// TestWithPoisonNotifyFiresOncePerPoisoning: the notify hook runs exactly
// once per poisoning no matter how many goroutines race to poison, fires
// after local waiters are woken, and arms again after Reset.
func TestWithPoisonNotifyFiresOncePerPoisoning(t *testing.T) {
	var calls atomic.Int32
	var last atomic.Value
	b := NewCombiningTree(4, 2, WithPoisonNotify(func(err error) {
		calls.Add(1)
		last.Store(err)
	}))

	cause := errors.New("first")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.Poison(cause)
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("notify fired %d times for one poisoning, want 1", n)
	}
	if got := last.Load(); got != cause {
		t.Errorf("notify saw %v, want the winning cause %v", got, cause)
	}

	b.Reset()
	b.Poison(errors.New("second"))
	if n := calls.Load(); n != 2 {
		t.Errorf("notify fired %d times after Reset+Poison, want 2", n)
	}
}

// TestArrivalsSnapshot checks the exported per-participant arrival
// counters a remote coordinator reads: they count episodes per id, are
// episode-consistent at quiescent points, and Reset zeroes them.
func TestArrivalsSnapshot(t *testing.T) {
	const p, episodes = 3, 5
	b := NewCombiningTree(p, 2)
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
	counts := b.Arrivals()
	if len(counts) != p {
		t.Fatalf("Arrivals() has %d slots, want %d", len(counts), p)
	}
	for id, n := range counts {
		if n != episodes {
			t.Errorf("participant %d arrived %d times, want %d", id, n, episodes)
		}
	}
	b.Reset()
	for _, n := range b.Arrivals() {
		if n != 0 {
			t.Fatalf("Reset left arrival counts %v, want zeros", b.Arrivals())
		}
	}
}

// countingBarrier is the arrival-count surface every barrier in the
// package has.
type countingBarrier interface {
	ContextBarrier
	Arrivals() []uint64
	Reset()
	Close()
}

// TestArrivalsExactAtQuiescence pins Arrivals on every barrier, without a
// watchdog (the participants' own slots) and with one (the watchdog's
// shared counters): at every quiescent point both read exactly the
// arrivals made — across a poisoned episode and Reset, and on the
// reconfigurable barrier across a Grow and a Shrink, whose boundaries
// restart the counts from zero.
func TestArrivalsExactAtQuiescence(t *testing.T) {
	const p = 5
	uniform := func(n int, v uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	for _, watched := range []bool{false, true} {
		var opts []Option
		if watched {
			opts = []Option{WithWatchdog(time.Hour)}
		}
		for _, v := range abortableVariants(p, opts...) {
			t.Run(fmt.Sprintf("watched=%t/%s", watched, v.name), func(t *testing.T) {
				b := v.build().(countingBarrier)
				defer b.Close()
				check := func(when string, want []uint64) {
					t.Helper()
					if got := b.Arrivals(); !slices.Equal(got, want) {
						t.Fatalf("%s: Arrivals() = %v, want %v", when, got, want)
					}
				}
				check("fresh", uniform(p, 0))
				runHealthyEpisodes(t, b, 3)
				check("after 3 episodes", uniform(p, 3))
				if ph, ok := b.(PhasedBarrier); ok {
					// 1 and 3 arrive without blocking on every phased kind
					// (on the tournament they lose round 0).
					ph.Arrive(1)
					ph.Arrive(3)
					b.Poison(errors.New("stranded"))
					ph.Await(1)
					ph.Await(3)
					check("poisoned with 1 and 3 arrived", []uint64{3, 4, 3, 4, 3})
				}
				b.Reset()
				check("after Reset", uniform(p, 0))
				runHealthyEpisodes(t, b, 2)
				check("2 episodes after Reset", uniform(p, 2))
				r, ok := b.(*ReconfigurableBarrier)
				if !ok {
					return
				}
				if _, err := r.Grow(2); err != nil {
					t.Fatal(err)
				}
				runHealthyEpisodes(t, b, 1)
				check("after the growing boundary", uniform(p+2, 0))
				runHealthyEpisodes(t, b, 2)
				check("2 episodes after growing", uniform(p+2, 2))
				if _, err := r.Shrink(3); err != nil {
					t.Fatal(err)
				}
				runHealthyEpisodes(t, b, 1)
				check("after the shrinking boundary", uniform(p-1, 0))
				runHealthyEpisodes(t, b, 1)
				check("1 episode after shrinking", uniform(p-1, 1))
			})
		}
	}
}

// TestArrivalsConcurrentReadWatched reads a watched barrier's Arrivals from
// a goroutine of its own while the members run episodes — the read a
// remote coordinator may make at any time (CI runs it under -race) — and
// requires every snapshot to be in range and no count to go backwards.
func TestArrivalsConcurrentReadWatched(t *testing.T) {
	const p, episodes = 4, 200
	for _, v := range abortableVariants(p, WithWatchdog(time.Hour)) {
		t.Run(v.name, func(t *testing.T) {
			b := v.build().(countingBarrier)
			defer b.Close()
			stop, read := make(chan struct{}), make(chan error, 1)
			go func() {
				prev := make([]uint64, p)
				for {
					got := b.Arrivals()
					for id, n := range got {
						if n < prev[id] || n > episodes {
							read <- fmt.Errorf("participant %d read %d after %d (of %d episodes)", id, n, prev[id], episodes)
							return
						}
					}
					prev = got
					select {
					case <-stop:
						read <- nil
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			runHealthyEpisodes(t, b, episodes)
			close(stop)
			if err := <-read; err != nil {
				t.Fatal(err)
			}
			for id, n := range b.Arrivals() {
				if n != episodes {
					t.Errorf("participant %d arrived %d times, want %d", id, n, episodes)
				}
			}
		})
	}
}
