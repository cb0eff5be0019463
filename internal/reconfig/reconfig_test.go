package reconfig

import (
	"testing"

	rt "softbarrier/internal/runtime"
)

// fixedRec returns a recommender controlled through a pointer, so tests
// can steer the recommendation between episodes.
func fixedRec(deg *int) Recommender {
	return func(p int, sigma float64) int { return *deg }
}

func newTestController(cfg Config, deg int) (*Controller, *int) {
	est := &rt.SigmaEstimator{}
	est.Init(0)
	d := deg
	c := New(cfg, est, fixedRec(&d), Plan{P: 8, Degree: deg})
	return c, &d
}

func TestReconfigConfigNormalized(t *testing.T) {
	n := Config{}.Normalized()
	if n.ReplanEvery != 1 {
		t.Errorf("ReplanEvery 0 normalized to %d, want 1", n.ReplanEvery)
	}
	if n.MinDegreeDelta != 1 {
		t.Errorf("MinDegreeDelta 0 normalized to %d, want 1", n.MinDegreeDelta)
	}
	kept := Config{ReplanEvery: 7, MinDegreeDelta: 3, MinEpisodesBetween: 5}.Normalized()
	if kept.ReplanEvery != 7 || kept.MinDegreeDelta != 3 || kept.MinEpisodesBetween != 5 {
		t.Errorf("Normalized clobbered explicit values: %+v", kept)
	}
}

func TestReconfigInitialPlan(t *testing.T) {
	c, _ := newTestController(Config{InitialSigma: 2e-4}, 4)
	cur := c.Current()
	if cur.Epoch != 0 || cur.P != 8 || cur.Degree != 4 {
		t.Fatalf("initial plan = %+v", cur)
	}
	if cur.Sigma != 2e-4 {
		t.Errorf("initial plan sigma = %g, want InitialSigma 2e-4", cur.Sigma)
	}
	st := c.Stats()
	if st.Epochs != 1 || st.Rebuilds != 0 {
		t.Errorf("fresh stats = %+v, want 1 epoch, 0 rebuilds", st)
	}
}

func TestReconfigCadence(t *testing.T) {
	c, deg := newTestController(Config{ReplanEvery: 3}, 4)
	*deg = 8 // the recommendation moved right away
	for i := 1; i <= 2; i++ {
		c.Observe(1e-3)
		if _, ok := c.Evaluate(); ok {
			t.Fatalf("episode %d planned off-cadence (ReplanEvery 3)", i)
		}
	}
	c.Observe(1e-3)
	plan, ok := c.Evaluate()
	if !ok {
		t.Fatal("episode 3 did not plan on cadence")
	}
	if plan.Degree != 8 || plan.Epoch != 1 || plan.P != 8 || plan.Episodes != 3 {
		t.Errorf("plan = %+v", plan)
	}
	c.Commit(plan)
	if got := c.Current(); got.Epoch != 1 || got.Degree != 8 {
		t.Errorf("current after commit = %+v", got)
	}
}

func TestReconfigNoPlanWhenDegreeHolds(t *testing.T) {
	c, _ := newTestController(Config{ReplanEvery: 1}, 4)
	for i := 0; i < 5; i++ {
		c.Observe(1e-5)
		if plan, ok := c.Evaluate(); ok {
			t.Fatalf("planned %+v with an unchanged recommendation", plan)
		}
	}
}

func TestReconfigMinDegreeDelta(t *testing.T) {
	c, deg := newTestController(Config{ReplanEvery: 1, MinDegreeDelta: 3}, 4)
	*deg = 6 // |Δ| = 2 < 3: suppressed
	c.Observe(1e-3)
	if plan, ok := c.Evaluate(); ok {
		t.Fatalf("planned %+v below the degree-delta floor", plan)
	}
	*deg = 7 // |Δ| = 3: rebuild
	c.Observe(1e-3)
	if _, ok := c.Evaluate(); !ok {
		t.Fatal("did not plan at the degree-delta floor")
	}
}

func TestReconfigMinEpisodesBetween(t *testing.T) {
	// The floor counts from the last rebuild; the initial configuration
	// is the rebuild at episode 0, so the first plan is deferred too.
	c, deg := newTestController(Config{ReplanEvery: 1, MinEpisodesBetween: 4}, 4)
	*deg = 8
	for i := 1; i <= 3; i++ {
		c.Observe(1e-3)
		if p, ok := c.Evaluate(); ok {
			t.Fatalf("episode %d planned %+v inside the MinEpisodesBetween window", i, p)
		}
	}
	c.Observe(1e-3) // episode 4: the floor has passed
	plan, ok := c.Evaluate()
	if !ok {
		t.Fatal("plan still deferred past the MinEpisodesBetween floor")
	}
	c.Commit(plan)
	*deg = 16
	for i := 5; i <= 7; i++ {
		c.Observe(1e-3)
		if p, ok := c.Evaluate(); ok {
			t.Fatalf("episode %d planned %+v inside the MinEpisodesBetween window", i, p)
		}
	}
	c.Observe(1e-3) // episode 8: 4 past the rebuild at episode 4
	if _, ok := c.Evaluate(); !ok {
		t.Fatal("second plan still deferred past the floor")
	}
	if st := c.Stats(); st.Deferred != 6 {
		t.Errorf("deferred = %d, want 6", st.Deferred)
	}
}

func TestReconfigResizeAlwaysPlans(t *testing.T) {
	c, _ := newTestController(Config{ReplanEvery: 1000}, 4)
	if err := c.RequestP(12); err != nil {
		t.Fatal(err)
	}
	plan, ok := c.Evaluate() // far off the cadence, zero episodes observed
	if !ok {
		t.Fatal("pending membership change did not force a plan")
	}
	if plan.P != 12 {
		t.Errorf("plan.P = %d, want 12", plan.P)
	}
	c.Commit(plan)
	if c.TargetP() != 0 {
		t.Errorf("commit did not consume the membership target (still %d)", c.TargetP())
	}
	if _, ok := c.Evaluate(); ok {
		t.Error("re-planned with no pending target and off-cadence")
	}
}

func TestReconfigRequestDeltaStacks(t *testing.T) {
	c, _ := newTestController(Config{}, 4)
	if p, err := c.RequestDelta(+2); err != nil || p != 10 {
		t.Fatalf("first delta: p=%d err=%v, want 10", p, err)
	}
	if p, err := c.RequestDelta(+2); err != nil || p != 12 {
		t.Fatalf("stacked delta: p=%d err=%v, want 12", p, err)
	}
	if _, err := c.RequestDelta(-12); err == nil {
		t.Error("delta to p=0 accepted")
	}
	if err := c.RequestP(0); err == nil {
		t.Error("RequestP(0) accepted")
	}
}

func TestReconfigInitialSigmaWhileUnseeded(t *testing.T) {
	c, _ := newTestController(Config{InitialSigma: 5e-4}, 4)
	if got := c.Sigma(); got != 5e-4 {
		t.Errorf("unseeded Sigma() = %g, want InitialSigma", got)
	}
	c.RequestP(6)
	plan, ok := c.Evaluate()
	if !ok {
		t.Fatal("resize plan missing")
	}
	if plan.Sigma != 5e-4 {
		t.Errorf("unseeded plan sigma = %g, want InitialSigma", plan.Sigma)
	}
	c.Observe(1e-3)
	if got := c.Sigma(); got != 1e-3 {
		t.Errorf("seeded Sigma() = %g, want the EWMA estimate", got)
	}
}

func TestReconfigStatsCounts(t *testing.T) {
	c, deg := newTestController(Config{ReplanEvery: 2}, 4)
	*deg = 8
	for i := 1; i <= 4; i++ {
		c.Observe(1e-3)
		if plan, ok := c.Evaluate(); ok {
			c.Commit(plan)
			*deg += 4 // keep the recommendation moving
		}
	}
	st := c.Stats()
	if st.Evals != 4 {
		t.Errorf("evals = %d, want 4", st.Evals)
	}
	if st.Rebuilds != 2 || st.Epochs != 3 {
		t.Errorf("rebuilds=%d epochs=%d, want 2 and 3", st.Rebuilds, st.Epochs)
	}
	if st.LastPlan.Epoch != 2 || st.LastPlan.Degree != 12 {
		t.Errorf("last plan = %+v", st.LastPlan)
	}
}
