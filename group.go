package softbarrier

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Group runs bulk-synchronous supersteps: a fixed pool of workers executes
// a step function, with a barrier between consecutive steps so that no
// worker starts step k+1 before every worker finished step k. It is the
// BSP-loop boilerplate every barrier user otherwise rewrites.
//
// A panicking step function does not strand the other workers: the panic
// is recovered, the group's barrier is poisoned so every parked sibling
// wakes immediately, all workers stop at the panicking step's boundary,
// and the panic is re-raised to the caller once the pool has drained (the
// earliest failing step's lowest-numbered worker wins, mirroring RunErr).
// Failures the group injected itself are healed after the drain — the
// barrier is Reset, so the group stays reusable. A poison arriving from
// outside (a watchdog, a direct Poison call) is not cleared: Run and
// RunFuzzy re-raise it as a panic, RunErr returns it.
type Group struct {
	b Barrier

	mu      sync.Mutex
	stats   GroupStats
	running int // in-flight Run/RunErr/RunFuzzy invocations
}

// GroupStats aggregates the supersteps a Group has executed across its
// Run/RunErr/RunFuzzy invocations. For per-episode barrier telemetry
// (arrival spread, sync delay), construct the group's barrier with
// WithObserver — e.g. an Aggregate — instead.
type GroupStats struct {
	// Runs counts completed Run/RunErr/RunFuzzy invocations (including
	// ones cut short by an error or panic).
	Runs int
	// Steps counts supersteps actually executed across runs.
	Steps int
	// Wall is the cumulative wall-clock time spent inside runs.
	Wall time.Duration
}

// NewGroup wraps a barrier in a superstep runner. The group's worker count
// is the barrier's participant count.
func NewGroup(b Barrier) *Group { return &Group{b: b} }

// Workers returns the number of workers.
func (g *Group) Workers() int { return g.b.Participants() }

// Barrier returns the barrier synchronizing the group.
func (g *Group) Barrier() Barrier { return g.b }

// Stats returns the group's cumulative superstep statistics.
func (g *Group) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

func (g *Group) note(start time.Time, steps int) {
	g.mu.Lock()
	g.stats.Runs++
	g.stats.Steps += steps
	g.stats.Wall += time.Since(start)
	g.running--
	g.mu.Unlock()
}

// begin marks a run in flight, blocking Resize for its duration.
func (g *Group) begin() {
	g.mu.Lock()
	g.running++
	g.mu.Unlock()
}

// Resize changes the group's worker count, for barriers that support it
// (Resizable — the reconfigurable/adaptive barrier). The group must be
// between runs: a Group resize is the caller-synchronized quiescent path,
// and the next Run picks up the new worker count. To change membership
// while workers are running, use the barrier's own Grow/Shrink, which
// queue the change for an episode boundary.
func (g *Group) Resize(p int) error {
	r, ok := g.b.(Resizable)
	if !ok {
		return fmt.Errorf("softbarrier: %T does not support resizing", g.b)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.running > 0 {
		return fmt.Errorf("softbarrier: cannot resize group with %d runs in flight", g.running)
	}
	return r.Resize(p)
}

// Grow adds n workers to the group between runs.
func (g *Group) Grow(n int) error { return g.Resize(g.b.Participants() + n) }

// Shrink removes n workers from the group between runs.
func (g *Group) Shrink(n int) error { return g.Resize(g.b.Participants() - n) }

// panicTracker coordinates failure recovery across a worker pool: the
// first failure of the earliest step wins, whether a recovered panic or a
// returned error, and every worker stops at that step's barrier boundary
// so nobody is stranded mid-episode. When the group's barrier is Abortable
// the tracker also poisons it on the first recorded failure, so siblings
// already parked in the barrier wake at once instead of relying on every
// worker reaching the next stop check.
type panicTracker struct {
	step  atomic.Int64 // earliest failing step; steps beyond it are skipped
	total int          // the run's declared step count
	vals  []any        // per-worker recovered panic value (first failure per worker)
	errs  []error      // per-worker returned error (first failure per worker)
	at    []int        // per-worker failing step
	ab    Abortable    // the group's barrier, or nil if it is not abortable
}

func newPanicTracker(p, steps int, ab Abortable) *panicTracker {
	t := &panicTracker{total: steps, vals: make([]any, p), errs: make([]error, p), at: make([]int, p), ab: ab}
	t.step.Store(int64(steps))
	return t
}

// call runs f, recording a recovered panic against (id, step).
func (t *panicTracker) call(id, step int, f func()) {
	defer func() {
		if r := recover(); r != nil {
			t.record(id, step, r, nil)
		}
	}()
	f()
}

// record notes worker id's first failure — a panic value or an error — at
// step, moves the boundary down to it if it is the earliest, and poisons
// the group's barrier.
func (t *panicTracker) record(id, step int, val any, err error) {
	if t.vals[id] != nil || t.errs[id] != nil {
		return
	}
	t.vals[id], t.errs[id], t.at[id] = val, err, step
	for {
		cur := t.step.Load()
		if int64(step) >= cur || t.step.CompareAndSwap(cur, int64(step)) {
			break
		}
	}
	if t.ab == nil {
		return
	}
	if val != nil {
		t.ab.Poison(fmt.Errorf("softbarrier: worker %d panicked in superstep %d: %v", id, step, val))
	} else {
		t.ab.Poison(fmt.Errorf("softbarrier: worker %d failed in superstep %d: %w", id, step, err))
	}
}

// failed reports whether the tracker recorded any failure.
func (t *panicTracker) failed() bool { return t.step.Load() < int64(t.total) }

// abortedExternally reports a poison that did not come from this run's
// own failure recovery: supersteps are no longer synchronized and the pool
// must stop where it stands. Self-inflicted poison is excluded — those
// workers still drain deterministically to the recorded step boundary.
// (Poison is published after the boundary CAS, so observing the error
// implies observing the boundary.)
func (t *panicTracker) abortedExternally() bool {
	return t.ab != nil && !t.failed() && t.ab.Err() != nil
}

// stopped reports whether step is beyond the failure boundary. Every
// worker observes the boundary at the same barrier crossing: the failing
// step's completion is ordered before this check by the barrier itself.
func (t *panicTracker) stopped(step int) bool { return int64(step) > t.step.Load() }

// rethrow re-raises the recorded panic of the earliest failing step, or
// else returns its recorded error: the lowest-numbered worker's, panics
// before errors. Call after the pool has drained.
func (t *panicTracker) rethrow() error {
	fs := t.step.Load()
	for id, v := range t.vals {
		if v != nil && int64(t.at[id]) == fs {
			panic(v)
		}
	}
	for id, err := range t.errs {
		if err != nil && int64(t.at[id]) == fs {
			return err
		}
	}
	return nil
}

// executed returns how many supersteps actually ran given the failure
// boundary.
func (t *panicTracker) executed(steps int) int {
	if fs := t.step.Load(); fs < int64(steps) {
		return int(fs) + 1
	}
	return steps
}

// heal inspects the barrier after the pool has drained. Failures the
// group injected itself (selfInflicted: a recorded panic or worker error)
// have served their purpose once every worker returned, so the barrier is
// Reset — the pool being drained is exactly the quiescent point Reset
// needs — and the group stays reusable. An external poison is returned
// instead, for the runner to propagate.
func (g *Group) heal(ab Abortable, selfInflicted bool) error {
	if ab == nil {
		return nil
	}
	err := ab.Err()
	if err == nil {
		return nil
	}
	if !selfInflicted {
		return err
	}
	if r, ok := ab.(interface{ Reset() }); ok {
		r.Reset()
	}
	return nil
}

// run is the worker loop behind Run, RunErr and RunFuzzy: one goroutine
// per worker executes superstep for each step until the last, the
// boundary of a recorded failure, or an external poison. Once the pool has
// drained it heals self-inflicted poison, re-raises a recorded panic, and
// returns the recorded error, else the external poison.
func (g *Group) run(steps int, superstep func(t *panicTracker, id, step int)) error {
	g.begin()
	start := time.Now()
	p := g.b.Participants()
	ab, _ := g.b.(Abortable)
	t := newPanicTracker(p, steps, ab)
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for step := 0; step < steps; step++ {
				if t.stopped(step) || t.abortedExternally() {
					return
				}
				superstep(t, id, step)
			}
		}(id)
	}
	wg.Wait()
	g.note(start, t.executed(steps))
	perr := g.heal(ab, t.failed())
	if err := t.rethrow(); err != nil {
		return err
	}
	return perr
}

// Run spawns one goroutine per worker and executes steps supersteps of
// fn(id, step), synchronizing after each. It returns when every worker has
// finished the last step. If fn panics, the barrier is poisoned so the
// remaining participants release immediately, every worker stops at the
// panicking step's boundary, and the panic is re-raised from Run (with
// the barrier healed for reuse). If the barrier is poisoned from outside
// mid-run, Run stops the pool and panics with the poison error.
func (g *Group) Run(steps int, fn func(id, step int)) {
	if err := g.run(steps, func(t *panicTracker, id, step int) {
		t.call(id, step, func() { fn(id, step) })
		g.b.Wait(id)
	}); err != nil {
		panic(err)
	}
}

// RunErr is Run with error propagation: fn may fail, and a failing worker
// poisons the barrier, so parked siblings wake immediately and no worker
// starts a step past the failing one. Workers always finish the failing
// step itself (fn is never interrupted), so at most one step's extra work
// runs after the first failure. It returns the error
// of the lowest-numbered failing worker of the earliest failing step,
// with the barrier healed for reuse. A panic in fn is recovered like in
// Run and re-raised after the pool drains; panics take precedence over
// errors. If the barrier is poisoned from outside mid-run, RunErr stops
// the pool and returns the poison error.
func (g *Group) RunErr(steps int, fn func(id, step int) error) error {
	return g.run(steps, func(t *panicTracker, id, step int) {
		t.call(id, step, func() {
			if err := fn(id, step); err != nil {
				t.record(id, step, nil, err)
			}
		})
		g.b.Wait(id)
	})
}

// RunFuzzy is Run for a PhasedBarrier: after each step's dependent work,
// the worker arrives at the barrier, executes the slack function (work
// that needs nothing from other workers this step), and only then blocks.
// Load imbalance in fn is hidden behind slackFn, the fuzzy-barrier usage
// the paper's dynamic placement assumes. Either function may be nil. A
// panic in either function is recovered like in Run: the barrier is
// poisoned, workers stop at the same step boundary and the panic
// re-raises from RunFuzzy (with the barrier healed for reuse). An
// external poison stops the pool and re-raises as a panic, like Run.
func (g *Group) RunFuzzy(steps int, fn, slackFn func(id, step int)) {
	pb, ok := g.b.(PhasedBarrier)
	if !ok {
		panic("softbarrier: RunFuzzy needs a PhasedBarrier")
	}
	if err := g.run(steps, func(t *panicTracker, id, step int) {
		if fn != nil {
			t.call(id, step, func() { fn(id, step) })
		}
		pb.Arrive(id)
		if slackFn != nil {
			t.call(id, step, func() { slackFn(id, step) })
		}
		pb.Await(id)
	}); err != nil {
		panic(err)
	}
}
