package softbarrier

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRecommendBalancedWorkload(t *testing.T) {
	rec := Recommend(Profile{P: 64, Sigma: 0, Tc: 20e-6})
	if rec.Degree != 4 {
		t.Errorf("degree %d for balanced load, want 4", rec.Degree)
	}
	if rec.Dynamic || rec.Fuzzy {
		t.Errorf("balanced plain barrier got dynamic=%v fuzzy=%v", rec.Dynamic, rec.Fuzzy)
	}
	if rec.Rationale == "" {
		t.Error("empty rationale")
	}
}

func TestRecommendHeavyImbalanceWidensTree(t *testing.T) {
	rec := Recommend(Profile{P: 64, Sigma: 100 * 20e-6, Tc: 20e-6})
	if rec.Degree < 16 {
		t.Errorf("degree %d under heavy imbalance, want wide", rec.Degree)
	}
}

func TestRecommendSystemicEnablesDynamic(t *testing.T) {
	rec := Recommend(Profile{P: 64, Sigma: 1e-4, Systemic: true})
	if !rec.Dynamic {
		t.Error("systemic imbalance should enable dynamic placement")
	}
	if !strings.Contains(rec.Rationale, "systemic") {
		t.Errorf("rationale does not mention systemic imbalance: %s", rec.Rationale)
	}
}

func TestRecommendSlackThreshold(t *testing.T) {
	// Slack below 2σ: unpredictable arrival order, dynamic off.
	low := Recommend(Profile{P: 64, Sigma: 1e-3, Slack: 1e-3})
	if low.Dynamic {
		t.Error("slack < 2σ should not enable dynamic placement")
	}
	if !low.Fuzzy {
		t.Error("any slack should still suggest fuzzy usage")
	}
	// Ample slack: dynamic on.
	high := Recommend(Profile{P: 64, Sigma: 1e-3, Slack: 5e-3})
	if !high.Dynamic {
		t.Error("slack ≥ 2σ should enable dynamic placement")
	}
}

func TestRecommendPanics(t *testing.T) {
	for _, pr := range []Profile{
		{P: 0},
		{P: 4, Sigma: -1},
		{P: 4, Tc: -1},
		{P: 4, Slack: -1},
	} {
		pr := pr
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("profile %+v did not panic", pr)
				}
			}()
			Recommend(pr)
		}()
	}
}

func TestPlanBuildsWorkingBarrier(t *testing.T) {
	for _, pr := range []Profile{
		{P: 8, Sigma: 0},
		{P: 8, Sigma: 1e-3, Systemic: true},
		{P: 8, Sigma: 1e-4, Slack: 1e-3, Systemic: true, Rings: []int{4, 4}},
	} {
		b, rec := Plan(pr)
		if b.Participants() != pr.P {
			t.Fatalf("%+v: built barrier for %d participants", pr, b.Participants())
		}
		if rec.Dynamic {
			if _, ok := b.(*DynamicBarrier); !ok {
				t.Fatalf("%+v: recommendation says dynamic but built %T", pr, b)
			}
		}
		checkBarrier(t, b, pr.P, 10)
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

// fixedSigma is a SigmaSource returning a constant estimate.
type fixedSigma struct {
	sigma    float64
	episodes uint64
}

func (s fixedSigma) MeasuredSigma() (float64, uint64) { return s.sigma, s.episodes }

// TestRecommendClampsDegreeToParticipants pins the planner contract that
// a Recommendation is always buildable: Degree ∈ [2, max(2, p)] no matter
// how wide a tree the analytic model asks for. Small cohorts with large σ
// are exactly where the model overshoots — σ ≥ 1 ms wants degree ≈ 64 at
// p = 64, so without the clamp p = 3 would be handed degree 64.
func TestRecommendClampsDegreeToParticipants(t *testing.T) {
	cases := []struct {
		name string
		pr   Profile
		want int
	}{
		{"p1-huge-sigma", Profile{P: 1, Sigma: 1}, 2},
		{"p2-huge-sigma", Profile{P: 2, Sigma: 1}, 2},
		{"p3-huge-sigma", Profile{P: 3, Sigma: 1}, 3},
		{"p5-huge-sigma", Profile{P: 5, Sigma: 1}, 5},
		{"p64-tiny-sigma-floor", Profile{P: 64, Sigma: 1e-6}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := Recommend(c.pr)
			if rec.Degree != c.want {
				t.Errorf("Recommend(%+v).Degree = %d, want %d", c.pr, rec.Degree, c.want)
			}
			if b := rec.Build(c.pr); b == nil {
				t.Error("clamped recommendation did not build")
			}
		})
	}
}

// TestRecommendMeasuredClamps checks the clamp also guards the measured
// path: a live σ estimate far above the assumed one cannot push the
// degree past p, and an unseeded source (0 episodes) leaves the assumed
// σ — and its degree — untouched.
func TestRecommendMeasuredClamps(t *testing.T) {
	rec := RecommendMeasured(Profile{P: 3, Sigma: 0}, fixedSigma{sigma: 1, episodes: 100})
	if rec.Degree != 3 {
		t.Errorf("measured σ=1s at p=3: Degree = %d, want 3", rec.Degree)
	}
	rec = RecommendMeasured(Profile{P: 64, Sigma: 1e-6}, fixedSigma{sigma: 1, episodes: 0})
	if rec.Degree != 2 {
		t.Errorf("unseeded source should keep the assumed σ: Degree = %d, want 2", rec.Degree)
	}
}

// TestOptimalDegreeZeroAlloc gates a re-plan: after the first call for a
// cohort size has built its model table, OptimalDegree allocates nothing.
func TestOptimalDegreeZeroAlloc(t *testing.T) {
	for _, p := range []int{2, 8, 32, 4096} {
		OptimalDegree(p, 3e-4, 20e-6) // cold: builds p's table
		if avg := testing.AllocsPerRun(100, func() { OptimalDegree(p, 3e-4, 20e-6) }); avg != 0 {
			t.Errorf("OptimalDegree(%d) allocated %.2f times/op after first use, want 0", p, avg)
		}
	}
}
