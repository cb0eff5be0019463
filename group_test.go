package softbarrier

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestGroupRunPanicReleasesAndRethrows: a panicking worker must not strand
// the others mid-episode; everyone stops at the panicking step's boundary
// and the original panic value re-raises from Run.
func TestGroupRunPanicReleasesAndRethrows(t *testing.T) {
	const p, steps, panicStep = 4, 6, 2
	g := NewGroup(NewCombiningTree(p, 4))
	var maxStep atomic.Int64
	maxStep.Store(-1)

	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		g.Run(steps, func(id, step int) {
			for {
				cur := maxStep.Load()
				if int64(step) <= cur || maxStep.CompareAndSwap(cur, int64(step)) {
					break
				}
			}
			if id == 1 && step == panicStep {
				panic("worker 1 boom")
			}
		})
	}()

	select {
	case r := <-done:
		if r == nil {
			t.Fatal("Run swallowed the panic")
		}
		if s, ok := r.(string); !ok || s != "worker 1 boom" {
			t.Fatalf("re-raised panic value = %v, want the original string", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after a worker panic: remaining participants were not released")
	}
	// No worker may have started a step past the panic boundary.
	if got := maxStep.Load(); got != panicStep {
		t.Errorf("max executed step = %d, want %d (panic boundary)", got, panicStep)
	}
	st := g.Stats()
	if st.Runs != 1 {
		t.Errorf("stats runs = %d, want 1", st.Runs)
	}
	if st.Steps != panicStep+1 {
		t.Errorf("stats steps = %d, want %d (steps actually executed)", st.Steps, panicStep+1)
	}
}

// TestGroupRunEarliestPanicWins: with two panics in different steps, the
// earlier step's panic is the one re-raised.
func TestGroupRunEarliestPanicWins(t *testing.T) {
	const p, steps = 4, 6
	g := NewGroup(NewCentral(p))
	var r any
	func() {
		defer func() { r = recover() }()
		g.Run(steps, func(id, step int) {
			// Worker 3 panics in step 1; worker 0 panics in step 0 of the
			// same run. Step 0's panic must win even though both fire.
			if id == 0 && step == 0 {
				panic("step 0 panic")
			}
			if id == 3 && step == 0 {
				panic("other step 0 panic")
			}
		})
	}()
	if s, ok := r.(string); !ok || s != "step 0 panic" {
		t.Fatalf("re-raised %v, want the lowest-numbered worker's step-0 panic", r)
	}
}

// TestGroupRunFuzzyPanic: panic recovery also covers the fuzzy runner, in
// both the dependent and the slack function.
func TestGroupRunFuzzyPanic(t *testing.T) {
	const p, steps = 3, 4
	for _, tc := range []struct {
		name    string
		inSlack bool
	}{
		{"dependent-fn", false},
		{"slack-fn", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroup(NewDynamic(p, 2))
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				fn := func(id, step int) {
					if !tc.inSlack && id == 2 && step == 1 {
						panic(errors.New("fuzzy boom"))
					}
				}
				slack := func(id, step int) {
					if tc.inSlack && id == 2 && step == 1 {
						panic(errors.New("fuzzy boom"))
					}
				}
				g.RunFuzzy(steps, fn, slack)
			}()
			select {
			case r := <-done:
				err, ok := r.(error)
				if !ok || err.Error() != "fuzzy boom" {
					t.Fatalf("re-raised %v, want the original error value", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("RunFuzzy deadlocked after a panic")
			}
		})
	}
}

// TestGroupRunErrPanicTakesPrecedence: when a panic and an error occur,
// the panic re-raises (the error would otherwise be silently dropped).
func TestGroupRunErrPanic(t *testing.T) {
	const p, steps = 3, 4
	g := NewGroup(NewCentral(p))
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		_ = g.RunErr(steps, func(id, step int) error {
			if id == 0 && step == 1 {
				return errors.New("plain failure")
			}
			if id == 1 && step == 1 {
				panic("err-run boom")
			}
			return nil
		})
	}()
	select {
	case r := <-done:
		if s, ok := r.(string); !ok || s != "err-run boom" {
			t.Fatalf("re-raised %v, want the panic", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunErr deadlocked after a panic")
	}
}

// TestGroupStats checks the aggregate superstep accounting across runs.
func TestGroupStats(t *testing.T) {
	const p = 4
	g := NewGroup(NewCombiningTree(p, 4))
	g.Run(3, func(id, step int) {})
	g.Run(2, func(id, step int) {})
	if err := g.RunErr(4, func(id, step int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Runs != 3 {
		t.Errorf("runs = %d, want 3", st.Runs)
	}
	if st.Steps != 3+2+4 {
		t.Errorf("steps = %d, want 9", st.Steps)
	}
	if st.Wall <= 0 {
		t.Errorf("wall = %v, want > 0", st.Wall)
	}
}

// TestGroupRunErrStillWorks pins the earliest-failing-step error semantics
// after the panic-tracker refactor.
func TestGroupRunErrSemantics(t *testing.T) {
	const p, steps = 4, 6
	g := NewGroup(NewCentral(p))
	wantErr := errors.New("step 2, worker 1")
	var maxStep atomic.Int64
	maxStep.Store(-1)
	err := g.RunErr(steps, func(id, step int) error {
		for {
			cur := maxStep.Load()
			if int64(step) <= cur || maxStep.CompareAndSwap(cur, int64(step)) {
				break
			}
		}
		if step == 2 {
			if id == 1 {
				return wantErr
			}
			if id == 3 {
				return errors.New("step 2, worker 3")
			}
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the lowest-numbered worker's error", err)
	}
	// Workers finish the failing step; nobody starts past it.
	if got := maxStep.Load(); got != 2 {
		t.Errorf("max executed step = %d, want 2", got)
	}
}

// TestPanicTrackerStoppedBoundary pins the off-by-one contract of the
// panic boundary: the panicking step itself is NOT stopped (every worker
// must finish it so the barrier episode completes), only steps strictly
// beyond it are.
func TestPanicTrackerStoppedBoundary(t *testing.T) {
	const p, steps = 4, 6
	tr := newPanicTracker(p, steps, nil)
	for s := 0; s < steps; s++ {
		if tr.stopped(s) {
			t.Fatalf("fresh tracker stopped(%d)", s)
		}
	}
	if tr.failed() {
		t.Fatal("fresh tracker reports failed")
	}

	tr.call(1, 2, func() { panic("boom") })

	if !tr.failed() {
		t.Fatal("tracker did not record the panic")
	}
	if tr.stopped(1) {
		t.Fatal("step before the boundary reported stopped")
	}
	if tr.stopped(2) {
		t.Fatal("the panicking step itself must not be stopped")
	}
	if !tr.stopped(3) {
		t.Fatal("step past the boundary not stopped")
	}
	if got := tr.executed(steps); got != 3 {
		t.Fatalf("executed = %d, want 3 (steps 0..2)", got)
	}

	// An earlier panic moves the boundary down; a later one does not.
	tr.call(2, 4, func() { panic("late") })
	if tr.stopped(2) || !tr.stopped(3) {
		t.Fatal("later panic moved the boundary")
	}
	tr.call(3, 0, func() { panic("early") })
	if tr.stopped(0) || !tr.stopped(1) {
		t.Fatal("earlier panic did not move the boundary")
	}
}

func TestGroupRunSynchronizesSteps(t *testing.T) {
	const p, steps = 6, 20
	g := NewGroup(NewCombiningTree(p, 4))
	if g.Workers() != p {
		t.Fatalf("Workers = %d", g.Workers())
	}
	var perStep [steps]atomic.Int32
	g.Run(steps, func(id, step int) {
		perStep[step].Add(1)
		// Everything from earlier steps must be complete.
		for s := 0; s < step; s++ {
			if perStep[s].Load() != p {
				t.Errorf("worker %d at step %d saw incomplete step %d", id, step, s)
			}
		}
	})
	for s := 0; s < steps; s++ {
		if perStep[s].Load() != p {
			t.Fatalf("step %d has %d arrivals", s, perStep[s].Load())
		}
	}
}

func TestGroupRunFuzzyOverlap(t *testing.T) {
	const p, steps = 4, 10
	g := NewGroup(NewMCSTree(p, 2))
	var slackRuns atomic.Int32
	g.RunFuzzy(steps,
		func(id, step int) {
			if id == 0 {
				time.Sleep(200 * time.Microsecond) // imbalance
			}
		},
		func(id, step int) { slackRuns.Add(1) },
	)
	if got := slackRuns.Load(); got != p*steps {
		t.Fatalf("slack function ran %d times, want %d", got, p*steps)
	}
	// Nil functions must be allowed.
	g.RunFuzzy(2, nil, nil)
}

func TestGroupRunFuzzyNeedsPhased(t *testing.T) {
	g := NewGroup(plainBarrier{NewCentral(2)})
	defer func() {
		if recover() == nil {
			t.Fatal("RunFuzzy on a plain barrier did not panic")
		}
	}()
	g.RunFuzzy(1, nil, nil)
}

// plainBarrier hides the phased methods of an underlying barrier.
type plainBarrier struct{ b Barrier }

func (p plainBarrier) Wait(id int)       { p.b.Wait(id) }
func (p plainBarrier) Participants() int { return p.b.Participants() }

func TestGroupRunErrStopsAfterFailingStep(t *testing.T) {
	const p, steps = 4, 50
	g := NewGroup(NewCombiningTree(p, 4))
	var maxStep atomic.Int32
	wantErr := errors.New("worker 2 exploded")
	err := g.RunErr(steps, func(id, step int) error {
		if s := int32(step); s > maxStep.Load() {
			maxStep.Store(s)
		}
		if id == 2 && step == 3 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// Workers finish the failing step and may start at most one more.
	if got := maxStep.Load(); got > 4 {
		t.Fatalf("work continued to step %d after failure at 3", got)
	}
}

func TestGroupRunErrNilOnSuccess(t *testing.T) {
	g := NewGroup(NewCentral(3))
	calls := atomic.Int32{}
	if err := g.RunErr(10, func(id, step int) error {
		calls.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 30 {
		t.Fatalf("calls = %d, want 30", calls.Load())
	}
}

func TestGroupRunErrEarliestStepWins(t *testing.T) {
	const p = 3
	g := NewGroup(NewCombiningTree(p, 2))
	early := errors.New("early")
	late := errors.New("late")
	err := g.RunErr(10, func(id, step int) error {
		switch {
		case id == 1 && step == 2:
			return early
		case id == 0 && step == 3:
			return late
		}
		return nil
	})
	if err != early {
		t.Fatalf("err = %v, want the earliest failing step's error", err)
	}
}
