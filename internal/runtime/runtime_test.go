package runtime

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softbarrier/internal/stats"
)

// parkOnly forces the park path immediately, exercising the blocking
// primitives rather than the spin/yield escape hatches.
var parkOnly = WaitPolicy{Spin: 0, Yield: 0}

func TestGateOpenWakesParkedWaiters(t *testing.T) {
	var g Gate
	g.Init(parkOnly)
	const waiters = 8
	var woken atomic.Int64
	var wg sync.WaitGroup
	wg.Add(waiters)
	mine := g.Seq()
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			g.Await(mine)
			woken.Add(1)
		}()
	}
	time.Sleep(2 * time.Millisecond) // let the waiters park
	if got := woken.Load(); got != 0 {
		t.Fatalf("%d waiters returned before Open", got)
	}
	if next := g.Open(); next != mine+1 {
		t.Fatalf("Open returned %d, want %d", next, mine+1)
	}
	wg.Wait()
	if got := woken.Load(); got != waiters {
		t.Fatalf("woke %d of %d waiters", got, waiters)
	}
}

func TestGateAwaitPastGenerationReturnsImmediately(t *testing.T) {
	var g Gate
	g.Init(parkOnly)
	g.Open()
	done := make(chan struct{})
	go func() {
		g.Await(0) // generation already passed
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Await(past generation) blocked")
	}
}

func TestGateManyGenerations(t *testing.T) {
	// Two goroutines ping-pong through generations with every wait parked:
	// a missed wakeup deadlocks (caught by the test timeout).
	var g Gate
	g.Init(parkOnly)
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < rounds; i++ {
			g.Await(i)
		}
	}()
	for i := 0; i < rounds; i++ {
		time.Sleep(50 * time.Microsecond)
		g.Open()
	}
	wg.Wait()
}

func TestCellParkUnpark(t *testing.T) {
	var c Cell
	c.Init()
	const episodes = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); v <= episodes; v++ {
			if got := c.AwaitAtLeast(v, parkOnly); got < v {
				t.Errorf("AwaitAtLeast(%d) returned %d", v, got)
				return
			}
		}
	}()
	for v := uint64(1); v <= episodes; v++ {
		if v%3 == 0 {
			time.Sleep(20 * time.Microsecond) // let the waiter park sometimes
		}
		c.Set(v)
	}
	wg.Wait()
}

func TestCellAwaitSatisfiedValueNeverBlocks(t *testing.T) {
	var c Cell
	c.Init()
	c.Set(5)
	if got := c.AwaitAtLeast(3, parkOnly); got != 5 {
		t.Fatalf("AwaitAtLeast(3) = %d, want 5", got)
	}
}

func TestCellSpinPolicyStillCorrect(t *testing.T) {
	var c Cell
	c.Init()
	spin := WaitPolicy{Spin: 1 << 20, Yield: 1 << 10}
	done := make(chan uint64, 1)
	go func() { done <- c.AwaitAtLeast(1, spin) }()
	time.Sleep(time.Millisecond)
	c.Set(1)
	select {
	case got := <-done:
		if got != 1 {
			t.Fatalf("got %d, want 1", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("spin-policy wait never completed")
	}
}

func TestGatePoisonWakesParkedWaiters(t *testing.T) {
	var g Gate
	g.Init(parkOnly)
	const waiters = 8
	var woken atomic.Int64
	var wg sync.WaitGroup
	wg.Add(waiters)
	mine := g.Seq()
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			g.Await(mine)
			woken.Add(1)
		}()
	}
	time.Sleep(2 * time.Millisecond) // let the waiters park
	if got := woken.Load(); got != 0 {
		t.Fatalf("%d waiters returned before Poison", got)
	}
	g.Poison()
	wg.Wait()
	if !g.Poisoned() {
		t.Fatal("gate not poisoned after Poison")
	}

	// Every future Await returns immediately, whatever generation it asks for.
	done := make(chan struct{})
	go func() {
		g.Await(g.Seq())
		g.Await(0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Await on poisoned gate blocked")
	}

	// Unpoison at a quiescent point restores normal operation.
	g.Unpoison()
	if g.Poisoned() {
		t.Fatal("gate still poisoned after Unpoison")
	}
	mine = g.Seq()
	released := make(chan struct{})
	go func() {
		g.Await(mine)
		close(released)
	}()
	time.Sleep(time.Millisecond)
	select {
	case <-released:
		t.Fatal("Await returned without Open on unpoisoned gate")
	default:
	}
	g.Open()
	<-released
}

func TestGatePoisonStickyUnderOpen(t *testing.T) {
	// Open's generation bump must not clear the poison bit.
	var g Gate
	g.Init(parkOnly)
	g.Poison()
	g.Open()
	if !g.Poisoned() {
		t.Fatal("Open cleared the poison bit")
	}
	done := make(chan struct{})
	go func() {
		g.Await(g.Seq())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Await blocked on a gate poisoned before Open")
	}
}

func TestCellPoisonWakesWaiterAndStays(t *testing.T) {
	var c Cell
	c.Init()
	done := make(chan uint64, 1)
	go func() { done <- c.AwaitAtLeast(5, parkOnly) }()
	time.Sleep(time.Millisecond) // let the waiter park
	c.Poison()
	select {
	case got := <-done:
		if got != PoisonValue {
			t.Fatalf("poisoned wait returned %d, want PoisonValue", got)
		}
	case <-time.After(time.Second):
		t.Fatal("Poison did not wake the parked waiter")
	}
	if !c.Poisoned() {
		t.Fatal("cell not poisoned")
	}

	// A racing signaller's Set must not lower the value back below poison.
	c.Set(7)
	if !c.Poisoned() {
		t.Fatal("Set un-poisoned the cell")
	}
	if got := c.AwaitAtLeast(1<<40, parkOnly); got != PoisonValue {
		t.Fatalf("wait after poison returned %d, want PoisonValue", got)
	}

	// Reset restores a usable zero-valued cell.
	c.Reset()
	if c.Poisoned() {
		t.Fatal("cell still poisoned after Reset")
	}
	c.Set(1)
	if got := c.AwaitAtLeast(1, parkOnly); got != 1 {
		t.Fatalf("post-Reset wait returned %d, want 1", got)
	}
}

func TestCellSetIsMonotone(t *testing.T) {
	var c Cell
	c.Init()
	c.Set(10)
	c.Set(3) // stale signaller: must not regress the value
	if got := c.AwaitAtLeast(10, parkOnly); got != 10 {
		t.Fatalf("value regressed to %d after stale Set", got)
	}
}

func TestSigmaEstimatorConcurrentObserve(t *testing.T) {
	// All observations equal: the EWMA fixed point is the value itself, so
	// any lost update or double-seed shows up as a wrong count or σ.
	var e SigmaEstimator
	e.Init()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				e.Observe(1.0)
			}
		}()
	}
	wg.Wait()
	if got := e.Episodes(); got != goroutines*perG {
		t.Fatalf("episodes = %d, want %d (lost updates)", got, goroutines*perG)
	}
	if got := e.Sigma(); got != 1.0 {
		t.Fatalf("σ = %v, want exactly 1.0", got)
	}
}

func TestSigmaEstimatorEWMA(t *testing.T) {
	var e SigmaEstimator
	e.Init()
	if e.Sigma() != 0 || e.Episodes() != 0 {
		t.Fatal("fresh estimator not zero")
	}
	e.Observe(4) // seeds directly
	if got := e.Sigma(); got != 4 {
		t.Fatalf("after seed: σ = %v, want 4", got)
	}
	e.Observe(8) // 0.8*4 + 0.2*8 = 4.8
	if got := e.Sigma(); math.Abs(got-4.8) > 1e-12 {
		t.Fatalf("after second observation: σ = %v, want 4.8", got)
	}
	if e.Episodes() != 2 {
		t.Fatalf("episodes = %d, want 2", e.Episodes())
	}
}

func TestSigmaEstimatorDefaultWeight(t *testing.T) {
	var e SigmaEstimator
	e.Init()
	e.Observe(1)
	e.Observe(0)
	want := (1 - DefaultSigmaWeight) * 1.0
	if got := e.Sigma(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("σ = %v, want %v", got, want)
	}
}

// sliceObserver appends every emission.
type sliceObserver struct {
	mu  sync.Mutex
	eps []EpisodeStats
}

func (o *sliceObserver) Episode(st EpisodeStats) {
	o.mu.Lock()
	o.eps = append(o.eps, st)
	o.mu.Unlock()
}

func TestRecorderNilFastPath(t *testing.T) {
	r := New(4, nil, nil, 0)
	if r != nil {
		t.Fatal("recorder without observer should be nil")
	}
	// All methods must be safe on the nil recorder.
	r.Arrive(0, 0)
	if _, ok := r.Measure(0); ok {
		t.Fatal("nil recorder Measure reported ok")
	}
	r.Emit(Measurement{}, Extra{})
	r.Release(0, Extra{})
	if r.Active() {
		t.Fatal("nil recorder reports active")
	}
}

func TestRecorderMeasuresSpreadAndDelay(t *testing.T) {
	now := int64(0)
	clock := func() int64 { return now }
	obs := &sliceObserver{}
	r := New(3, obs, clock, 0)

	// Episode 0: arrivals at 0, 1000, 2000 ns; release at 2500 ns.
	for id, at := range []int64{0, 1000, 2000} {
		now = at
		r.Arrive(id, 0)
	}
	now = 2500
	r.Release(0, Extra{Degree: 4})

	// Episode 1 uses the other parity buffer.
	for id, at := range []int64{3000, 3100, 3200} {
		now = at
		r.Arrive(id, 1)
	}
	now = 4200
	r.Release(1, Extra{Swaps: 7})

	if len(obs.eps) != 2 {
		t.Fatalf("got %d emissions, want 2", len(obs.eps))
	}
	e0 := obs.eps[0]
	if e0.Episode != 0 || e0.P != 3 || e0.FirstArrival != 0 || e0.LastArrival != 2000 || e0.Degree != 4 {
		t.Fatalf("episode 0 stats wrong: %+v", e0)
	}
	if want := 500e-9; math.Abs(e0.SyncDelay-want) > 1e-15 {
		t.Fatalf("episode 0 sync delay %v, want %v", e0.SyncDelay, want)
	}
	if e0.Spread <= 0 {
		t.Fatalf("episode 0 spread %v, want > 0", e0.Spread)
	}
	e1 := obs.eps[1]
	if e1.Episode != 1 || e1.FirstArrival != 3000 || e1.LastArrival != 3200 || e1.Swaps != 7 {
		t.Fatalf("episode 1 stats wrong: %+v", e1)
	}
	if want := 1000e-9; math.Abs(e1.SyncDelay-want) > 1e-15 {
		t.Fatalf("episode 1 sync delay %v, want %v", e1.SyncDelay, want)
	}
}

func TestRecorderAlwaysActiveWithoutObserver(t *testing.T) {
	r := New(2, nil, nil, 1)
	if !r.Active() {
		t.Fatal("always-on recorder inactive")
	}
	r.Arrive(0, 0)
	r.Arrive(1, 0)
	m, ok := r.Measure(0)
	if !ok {
		t.Fatal("Measure not ok")
	}
	if m.Last < m.First {
		t.Fatalf("last %d before first %d", m.Last, m.First)
	}
	r.Emit(m, Extra{}) // no observer: must not panic
}

// TestRecorderSamplesOnCadence: without an observer the recorder measures
// the last of every `every` episodes and reads no clock for the others;
// an unmeasured episode has no measurement and no lags (not the stamps an
// earlier episode left in its parity buffer), and a Resize keeps the armed
// episode armed.
func TestRecorderSamplesOnCadence(t *testing.T) {
	var reads int64
	clock := func() int64 { reads++; return reads }
	r := New(2, nil, clock, 3)
	episode := func(e uint64, p int) (measured bool) {
		for id := 0; id < p; id++ {
			r.Arrive(id, e)
		}
		lags := r.LagsInto(e, nil)
		m, ok := r.Measure(e)
		if ok != (lags != nil) {
			t.Fatalf("episode %d: Measure ok=%t but LagsInto = %v", e, ok, lags)
		}
		if ok {
			r.Emit(m, Extra{})
		}
		return ok
	}
	for e := uint64(0); e < 5; e++ {
		if got, want := episode(e, 2), e == 2; got != want {
			t.Fatalf("episode %d measured = %t, want %t", e, got, want)
		}
	}
	if reads != 3 {
		t.Fatalf("%d clock reads over five episodes, want 3 (two arrivals and a release in episode 2)", reads)
	}
	r.Resize(4) // between episodes 4 and 5, as an elastic barrier's release does
	if !episode(5, 4) {
		t.Fatal("episode 5 not measured: Resize dropped the armed episode")
	}
	if reads != 3+5 {
		t.Fatalf("%d clock reads after episode 5 at p=4, want 8", reads)
	}
	if episode(6, 4) {
		t.Fatal("episode 6 measured, want the next at 8")
	}
}

// TestRecorderShrinkToZero is the regression test for the empty-slot-array
// panic: a recorder resized to zero participants must measure and report
// lags without indexing slots[0].
func TestRecorderShrinkToZero(t *testing.T) {
	r := New(4, nil, nil, 1)
	for id := 0; id < 4; id++ {
		r.Arrive(id, 0)
	}
	if lags := r.LagsInto(0, nil); len(lags) != 4 {
		t.Fatalf("LagsInto before shrink: %d lags, want 4", len(lags))
	}
	r.Resize(0)
	dst := make([]float64, 0, 8)
	if lags := r.LagsInto(1, dst); len(lags) != 0 {
		t.Fatalf("LagsInto on a zero-p recorder = %v, want empty", lags)
	}
	m, ok := r.Measure(1)
	if !ok {
		t.Fatal("Measure on a zero-p recorder reported not-ok; want an empty measurement")
	}
	if m.Spread != 0 || m.First != 0 || m.Last != 0 {
		t.Fatalf("zero-p measurement = %+v, want zero arrivals", m)
	}
	r.Emit(m, Extra{}) // must not panic either
}

// TestRecorderSpreadIsStdDev checks that the spread Measure computes in
// place over the arrival slots is exactly stats.StdDev of the stamps in
// seconds, bit for bit, at every participant count from the degenerate
// ones up.
func TestRecorderSpreadIsStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for p := 0; p <= 70; p++ {
		slots := make([]PaddedInt64, p)
		secs := make([]float64, p)
		sum := 0.0
		for i := range slots {
			slots[i].V = rng.Int63n(1 << 40)
			secs[i] = float64(slots[i].V) * 1e-9
			sum += secs[i]
		}
		if got, want := spread(slots, sum), stats.StdDev(secs); got != want {
			t.Fatalf("p=%d: spread %v, stats.StdDev %v", p, got, want)
		}
	}
}

// Poisoned reports whether the gate has been poisoned.
func (g *Gate) Poisoned() bool { return g.seq.Load()&GatePoisonBit != 0 }

// Poisoned reports whether the cell carries the poison sentinel.
func (c *Cell) Poisoned() bool { return c.v.Load() == PoisonValue }

// Active reports whether arrivals are being recorded.
func (r *Recorder) Active() bool { return r != nil }
