package softbarrier

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
)

// episodeCounter counts emitted episodes and keeps the latest stats.
type episodeCounter struct {
	n    atomic.Uint64
	mu   sync.Mutex
	last EpisodeStats
}

func (c *episodeCounter) Episode(s EpisodeStats) {
	c.mu.Lock()
	c.last = s
	c.mu.Unlock()
	c.n.Add(1)
}

func (c *episodeCounter) Last() EpisodeStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// elasticWorker loops barrier episodes until the barrier is poisoned or a
// membership change drops its id — the canonical drain pattern: the swap
// is published before the release that wakes Wait, so checking
// Participants after Wait is race-free.
func elasticWorker(b *ReconfigurableBarrier, id int, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if b.Err() != nil || id >= b.Participants() {
			return
		}
		b.Wait(id)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestReconfigurableElasticMidRun(t *testing.T) {
	b := NewReconfigurable(8, ReconfigConfig{ReplanEvery: 2})
	episodes := func() uint64 { return b.ReconfigStats().Evals }

	var wg, shrunk sync.WaitGroup
	wg.Add(4)
	shrunk.Add(4)
	for id := 0; id < 4; id++ {
		go elasticWorker(b, id, &wg)
	}
	for id := 4; id < 8; id++ {
		go elasticWorker(b, id, &shrunk)
	}
	waitFor(t, "warmup episodes", func() bool { return episodes() >= 50 })

	if _, err := b.Shrink(4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "shrink to 4", func() bool { return b.Participants() == 4 })
	mark := episodes()
	waitFor(t, "episodes at p=4", func() bool { return episodes() >= mark+50 })

	// Ids 4–7 are handed to new workers below: their shrunk owners must
	// have drained out first, or a slow one sees the regrown membership
	// cover its id, carries on, and two goroutines share a participant.
	shrunk.Wait()
	if _, err := b.Grow(4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "grow to 8", func() bool { return b.Participants() == 8 })
	wg.Add(4)
	for id := 4; id < 8; id++ {
		go elasticWorker(b, id, &wg)
	}
	mark = episodes()
	waitFor(t, "episodes at regrown p=8", func() bool { return episodes() >= mark+50 })

	b.Poison(nil)
	wg.Wait()
	if !errors.Is(b.Err(), ErrPoisoned) {
		t.Errorf("err = %v, want ErrPoisoned", b.Err())
	}
	st := b.ReconfigStats()
	if st.LastPlan.Epoch < 2 {
		t.Errorf("epoch = %d, want ≥ 2 (shrink + grow)", st.LastPlan.Epoch)
	}
	if st.LastPlan.P != 8 {
		t.Errorf("last plan P = %d, want 8", st.LastPlan.P)
	}
	if b.Epoch() != st.LastPlan.Epoch {
		t.Errorf("Epoch() = %d, last plan epoch %d", b.Epoch(), st.LastPlan.Epoch)
	}
}

func TestReconfigurableResizeImmediate(t *testing.T) {
	b := NewReconfigurable(4, ReconfigConfig{ReplanEvery: 1000})
	if err := b.Resize(6); err != nil {
		t.Fatal(err)
	}
	if got := b.Participants(); got != 6 {
		t.Fatalf("participants after resize = %d, want 6", got)
	}
	if b.Epoch() != 1 {
		t.Errorf("epoch after resize = %d, want 1", b.Epoch())
	}
	// The resized barrier must complete episodes at the new width.
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		wg.Add(6)
		for id := 0; id < 6; id++ {
			go func(id int) { defer wg.Done(); b.Wait(id) }(id)
		}
		wg.Wait()
	}
	if err := b.Resize(2); err != nil {
		t.Fatal(err)
	}
	wg.Add(2)
	for id := 0; id < 2; id++ {
		go func(id int) { defer wg.Done(); b.Wait(id) }(id)
	}
	wg.Wait()
	if err := b.Resize(0); err == nil {
		t.Error("Resize(0) accepted")
	}
}

// TestReconfigurableResizeFromObserver drives the membership protocol of a
// coordinator (internal/netbarrier): the Observer of the completing
// episode — a quiescent point at which the gate has not opened yet —
// Resizes 2 → 3 and starts worker 2 itself, so that worker's first Arrive
// races the gate opening, and later Resizes 3 → 2, regrowing only once the
// shrunk owner of id 2 has exited (drain before regrow). Every id's Wait
// must return exactly once per episode its membership covered: a grown
// slot stamped with the completing episode's generation instead of the
// next one lets worker 2 through a barrier nobody else has reached.
func TestReconfigurableResizeFromObserver(t *testing.T) {
	const episodes = 300
	var (
		b        *ReconfigurableBarrier
		grown    sync.WaitGroup
		drained  atomic.Bool
		returned [3]atomic.Int64
		covered  int64 // episodes run at P = 3; Observer-only until the workers are done
	)
	drained.Store(true)
	b = NewReconfigurable(2, ReconfigConfig{ReplanEvery: 1000}, WithObserver(observerFunc(func(st EpisodeStats) {
		last := st.Episode == episodes-1
		switch {
		case st.P == 3:
			covered++
			if last || st.Episode%3 == 0 {
				if err := b.Resize(2); err != nil {
					t.Error(err)
				}
			}
		case !last && drained.Load():
			if err := b.Resize(3); err != nil {
				t.Error(err)
			}
			drained.Store(false)
			grown.Add(1)
			go func() {
				defer grown.Done()
				for b.Participants() == 3 {
					b.Wait(2)
					returned[2].Add(1)
				}
				drained.Store(true)
			}()
		}
	})))

	var wg sync.WaitGroup
	for id := 0; id < 2; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for ep := 0; ep < episodes; ep++ {
				b.Wait(id)
				returned[id].Add(1)
			}
		}(id)
	}
	wg.Wait()
	grown.Wait()
	if covered == 0 {
		t.Fatal("id 2 was never a member")
	}
	for id, want := range []int64{episodes, episodes, covered} {
		if got := returned[id].Load(); got != want {
			t.Errorf("id %d returned from %d waits, its membership covered %d episodes", id, got, want)
		}
	}
}

func TestReconfigurableEpochInObserver(t *testing.T) {
	var obs episodeCounter
	b := NewReconfigurable(4, ReconfigConfig{ReplanEvery: 1000}, WithObserver(&obs))
	runEpisode := func(p int) {
		var wg sync.WaitGroup
		wg.Add(p)
		for id := 0; id < p; id++ {
			go func(id int) { defer wg.Done(); b.Wait(id) }(id)
		}
		wg.Wait()
	}
	runEpisode(4)
	if got := obs.Last(); got.Epoch != 0 || got.P != 4 {
		t.Errorf("episode 0 stats = epoch %d p %d, want 0/4", got.Epoch, got.P)
	}
	if err := b.RequestResize(6); err != nil {
		t.Fatal(err)
	}
	// The request lands at the next boundary: the episode still completes
	// with 4 arrivals, and its stats report the newly applied epoch.
	runEpisode(4)
	if got := obs.Last(); got.Epoch != 1 {
		t.Errorf("episode 1 stats epoch = %d, want 1 (plan applied at its release)", got.Epoch)
	}
	if b.Participants() != 6 {
		t.Errorf("participants = %d, want 6", b.Participants())
	}
	runEpisode(6)
	if got := obs.n.Load(); got != 3 {
		t.Errorf("observed %d episodes, want 3", got)
	}
}

func TestElasticGroupGrowShrink(t *testing.T) {
	g := NewGroup(NewReconfigurable(4, ReconfigConfig{}))
	var steps atomic.Int64
	g.Run(3, func(id, step int) { steps.Add(1) })
	if got := steps.Load(); got != 12 {
		t.Fatalf("ran %d worker-steps, want 12", got)
	}
	if err := g.Grow(2); err != nil {
		t.Fatal(err)
	}
	if g.Workers() != 6 {
		t.Fatalf("workers after grow = %d, want 6", g.Workers())
	}
	steps.Store(0)
	g.Run(2, func(id, step int) { steps.Add(1) })
	if got := steps.Load(); got != 12 {
		t.Fatalf("ran %d worker-steps at 6 workers, want 12", got)
	}
	if err := g.Shrink(3); err != nil {
		t.Fatal(err)
	}
	if g.Workers() != 3 {
		t.Fatalf("workers after shrink = %d, want 3", g.Workers())
	}
	if err := g.Shrink(3); err == nil {
		t.Error("shrink to zero workers accepted")
	}
	if err := NewGroup(NewCentral(4)).Resize(8); err == nil {
		t.Error("resize of a non-resizable barrier accepted")
	}
}

// The re-plan rule, checked on one goroutine against a clock the test
// owns. With P = 8 and t_c = 1ms the model knows two degrees: 2 up to
// σ ≈ 3.75ms and 8 (flat) beyond, so wideGap — 2ms between consecutive
// arrivals, a spread of ≈ 4.6ms — recommends 8 and simultaneous arrival
// recommends 2. Against pinTc every spread a test produces is
// simultaneous arrival, so a barrier given it never changes degree.
const (
	drivenTc = 1e-3
	wideGap  = 2 * time.Millisecond
	pinTc    = 1.0
)

// drivenReconfigurable returns a barrier at t_c = drivenTc, so starting
// at degree 2 for any InitialSigma under 3.75ms, and a function that runs
// one episode single-handed, gap apart between consecutive arrivals: the
// spread is the test's input, not the scheduler's output.
func drivenReconfigurable(p int, cfg ReconfigConfig) (*ReconfigurableBarrier, func(gap time.Duration)) {
	var now int64
	cfg.Tc = drivenTc
	b := NewReconfigurable(p, cfg, withClock(func() int64 { return now }))
	return b, func(gap time.Duration) {
		n := b.Participants()
		for id := 0; id < n; id++ {
			now += int64(gap)
			b.Arrive(id)
		}
		for id := 0; id < n; id++ {
			b.Await(id)
		}
	}
}

// TestReconfigurableInitialPlan: the first epoch is planned by the model,
// from InitialSigma, like every later one.
func TestReconfigurableInitialPlan(t *testing.T) {
	for _, c := range []struct {
		sigma  float64
		degree int
	}{{2e-4, 2}, {5e-3, 8}} {
		b, _ := drivenReconfigurable(8, ReconfigConfig{InitialSigma: c.sigma})
		want := ReconfigStats{LastPlan: ReconfigPlan{P: 8, Degree: c.degree, Sigma: c.sigma}}
		if got := b.ReconfigStats(); got != want {
			t.Errorf("fresh stats = %+v, want %+v", got, want)
		}
	}
}

func TestReconfigurableCadence(t *testing.T) {
	b, episode := drivenReconfigurable(8, ReconfigConfig{ReplanEvery: 3})
	for i := 1; i <= 2; i++ {
		episode(wideGap) // would move the recommendation, were it looked at
		if b.Epoch() != 0 || b.Degree() != 2 {
			t.Fatalf("episode %d re-planned off-cadence (ReplanEvery 3): epoch %d degree %d", i, b.Epoch(), b.Degree())
		}
		if sigma, n := b.Sigma(), b.ReconfigStats().Evals; sigma != 0 || n != 0 {
			t.Fatalf("episode %d was measured off-cadence with no Observer: σ %g from %d episodes", i, sigma, n)
		}
	}
	episode(wideGap)
	wide := b.Sigma()
	want := ReconfigPlan{Epoch: 1, P: 8, Degree: 8, Sigma: wide, Episodes: 1}
	if got := b.ReconfigStats().LastPlan; got != want || wide == 0 {
		t.Errorf("plan after episode 3 = %+v, want %+v from the one measured episode", got, want)
	}
	if b.Epoch() != 1 || b.Degree() != 8 {
		t.Errorf("after episode 3: epoch %d degree %d, want 1/8", b.Epoch(), b.Degree())
	}
	// The EWMA folds measured episodes only, each with the usual weight:
	// two wide episodes nobody reads, then a simultaneous one on the cadence.
	episode(wideGap)
	episode(wideGap)
	episode(0)
	if sigma, n := b.Sigma(), b.ReconfigStats().Evals; n != 2 || math.Abs(sigma-0.8*wide) > 1e-12 {
		t.Errorf("after episode 6: σ %g from %d episodes, want 0.8 × %g from 2", sigma, n, wide)
	}
}

func TestReconfigurableNoPlanWhenDegreeHolds(t *testing.T) {
	b, episode := drivenReconfigurable(8, ReconfigConfig{ReplanEvery: 1})
	for i := 0; i < 5; i++ {
		episode(0)
		if b.Epoch() != 0 {
			t.Fatalf("re-planned to %+v with an unchanged recommendation", b.ReconfigStats().LastPlan)
		}
	}
}

func TestReconfigurableResizeAlwaysPlans(t *testing.T) {
	b, episode := drivenReconfigurable(8, ReconfigConfig{ReplanEvery: 1000})
	if err := b.RequestResize(12); err != nil {
		t.Fatal(err)
	}
	episode(0) // far off the cadence
	if b.Participants() != 12 || b.Epoch() != 1 {
		t.Fatalf("pending membership change did not force a plan: p %d epoch %d", b.Participants(), b.Epoch())
	}
	episode(0)
	if b.Epoch() != 1 {
		t.Error("re-planned with no pending target and off-cadence")
	}
	// The boundary consumed the target: a delta now starts from P.
	if p, err := b.Grow(1); err != nil || p != 13 {
		t.Errorf("Grow(1) after the boundary: p=%d err=%v, want 13", p, err)
	}
}

func TestReconfigurableRequestDeltaStacks(t *testing.T) {
	b, episode := drivenReconfigurable(8, ReconfigConfig{})
	if p, err := b.Grow(2); err != nil || p != 10 {
		t.Fatalf("first delta: p=%d err=%v, want 10", p, err)
	}
	if p, err := b.Grow(2); err != nil || p != 12 {
		t.Fatalf("stacked delta: p=%d err=%v, want 12", p, err)
	}
	if _, err := b.Shrink(12); err == nil {
		t.Error("delta to p=0 accepted")
	}
	if err := b.RequestResize(0); err == nil {
		t.Error("RequestResize(0) accepted")
	}
	episode(0)
	if b.Participants() != 12 {
		t.Errorf("participants after the boundary = %d, want 12 (the refusals leave the target alone)", b.Participants())
	}
}

func TestReconfigurableInitialSigmaWhileUnseeded(t *testing.T) {
	b, episode := drivenReconfigurable(8, ReconfigConfig{ReplanEvery: 2, InitialSigma: 5e-4})
	if err := b.Resize(6); err != nil {
		t.Fatal(err)
	}
	if got := b.ReconfigStats().LastPlan; got.Sigma != 5e-4 || got.Episodes != 0 {
		t.Errorf("unseeded plan = %+v, want InitialSigma 5e-4 at 0 episodes", got)
	}
	// Off the cadence and unobserved, so not measured: a membership change
	// after it still plans, at once, from what there is.
	episode(wideGap)
	if err := b.Resize(8); err != nil {
		t.Fatal(err)
	}
	if got := b.ReconfigStats().LastPlan; got.Epoch != 2 || got.Sigma != 5e-4 || got.Episodes != 0 {
		t.Errorf("plan after an unmeasured episode = %+v, want epoch 2 still on InitialSigma 5e-4 at 0 episodes", got)
	}
	episode(wideGap) // on the cadence: measured
	if err := b.Resize(6); err != nil {
		t.Fatal(err)
	}
	if got := b.ReconfigStats().LastPlan; got.Sigma != b.Sigma() || got.Sigma <= 5e-4 || got.Episodes != 1 {
		t.Errorf("seeded plan = %+v, want the EWMA estimate %g at 1 measured episode", got, b.Sigma())
	}
}

func TestReconfigurableStatsCounts(t *testing.T) {
	b, episode := drivenReconfigurable(8, ReconfigConfig{ReplanEvery: 2})
	// Every second episode is measured. The first of them is wide and
	// recommends 8; the next two are simultaneous and decay the EWMA to 0.8
	// of that, which still recommends 8, and then to 0.64, back under the
	// threshold.
	for _, gap := range []time.Duration{0, wideGap, wideGap, 0, wideGap, 0} {
		episode(gap)
	}
	st := b.ReconfigStats()
	if st.Evals != 3 {
		t.Errorf("evals = %d, want 3 (the measured episodes of 6 at ReplanEvery 2)", st.Evals)
	}
	if st.LastPlan.Epoch != 2 || st.LastPlan.Degree != 2 || st.LastPlan.Episodes != 3 {
		t.Errorf("last plan = %+v, want epoch 2 at degree 2 after 3 measured episodes", st.LastPlan)
	}
}

// TestReconfigurableResizeClearsPendingTarget: Resize is a membership
// request like any other, and the last one wins — a target queued before
// it must not resurface at the next boundary.
func TestReconfigurableResizeClearsPendingTarget(t *testing.T) {
	b, episode := drivenReconfigurable(4, ReconfigConfig{ReplanEvery: 1000})
	if _, err := b.Grow(2); err != nil {
		t.Fatal(err)
	}
	if err := b.Resize(3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		episode(0)
		if got := b.Participants(); got != 3 {
			t.Fatalf("participants after episode %d = %d, want 3 (the queued target of 6 came back)", i, got)
		}
	}
	if p, err := b.Grow(1); err != nil || p != 4 {
		t.Errorf("Grow(1) after Resize(3): p=%d err=%v, want 4", p, err)
	}
}

// TestReconfigurableConcurrentRequestsAndStats checks the lock-free
// membership word and telemetry where a mutex used to be: one goroutine
// drives every episode while another queues membership changes and takes
// snapshots. Every snapshot must agree with itself, and the last accepted
// request must be what the barrier ends up at — none lost to a boundary
// that was building an earlier target when it landed.
func TestReconfigurableConcurrentRequestsAndStats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const episodes, requests, maxP = 2000, 2000, 16
	b, episode := drivenReconfigurable(4, ReconfigConfig{})

	var last atomic.Int64 // last accepted membership target
	last.Store(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < requests; i++ {
			var p int
			var err error
			switch target := int(last.Load()); {
			case i%5 == 0:
				p = 1 + rng.Intn(maxP)
				err = b.RequestResize(p)
			case target < maxP && rng.Intn(2) == 0:
				p, err = b.Grow(1)
			default:
				// Refused at a target of 1, which must leave the target alone.
				p, err = b.Shrink(1)
			}
			if err == nil {
				last.Store(int64(p))
			}
			st := b.ReconfigStats()
			if st.LastPlan.P < 1 || st.LastPlan.Degree < 2 {
				t.Errorf("inconsistent snapshot %+v", st)
				return
			}
			if e := b.Epoch(); e < st.LastPlan.Epoch {
				t.Errorf("Epoch() = %d went back from %d", e, st.LastPlan.Epoch)
				return
			}
			if len(b.Depths()) < 1 {
				t.Error("Depths() of an empty epoch")
				return
			}
			runtime.Gosched()
		}
	}()

	requesting := true
	for ep := 0; ep < episodes || requesting; ep++ {
		episode(0)
		select {
		case <-done:
			requesting = false
		default:
		}
	}
	episode(0) // a boundary after the last request
	if got, want := b.Participants(), int(last.Load()); got != want {
		t.Errorf("participants = %d after the requester stopped at a target of %d", got, want)
	}
}

// TestReconfigurableStampsOnCadence pins the measurement rule as a count
// of clock reads — P arrivals and one release stamp per measured episode.
// A barrier nobody observes measures only the episodes its re-plans read,
// one in ReplanEvery; an Observer or a placement policy is owed every
// episode, and the Observer's records are what they always were.
func TestReconfigurableStampsOnCadence(t *testing.T) {
	const p, episodes = 32, 100
	// run drives the episodes single-handed on a clock that counts its
	// reads (reading n returns n) and returns the count.
	run := func(replanEvery int, opts ...Option) int64 {
		var reads int64
		opts = append(opts, withClock(func() int64 { reads++; return reads }))
		b := NewReconfigurable(p, ReconfigConfig{ReplanEvery: replanEvery}, opts...)
		for e := 0; e < episodes; e++ {
			for id := 0; id < p; id++ {
				b.Arrive(id)
			}
			for id := 0; id < p; id++ {
				b.Await(id)
			}
		}
		return reads
	}
	const perEpisode = p + 1
	for _, c := range []struct {
		replanEvery int
		want        int64
	}{{10, episodes / 10 * perEpisode}, {0, episodes * perEpisode}, {1, episodes * perEpisode}} {
		if got := run(c.replanEvery); got != c.want {
			t.Errorf("ReplanEvery %d, unobserved: %d clock reads in %d episodes, want %d", c.replanEvery, got, episodes, c.want)
		}
	}

	mk, ok := PlacementByName("ewma")
	if !ok {
		t.Fatal("no ewma policy")
	}
	if got := run(10, WithPlacementPolicy(mk())); got != episodes*perEpisode {
		t.Errorf("with a placement policy: %d clock reads, want %d", got, episodes*perEpisode)
	}

	var seen []EpisodeStats
	obs := observerFunc(func(st EpisodeStats) { seen = append(seen, st) })
	if got := run(10, WithObserver(obs)); got != episodes*perEpisode {
		t.Errorf("with an Observer: %d clock reads, want %d", got, episodes*perEpisode)
	}
	if len(seen) != episodes {
		t.Fatalf("the Observer saw %d episodes, want %d", len(seen), episodes)
	}
	arrivals := make([]float64, p)
	for e, got := range seen {
		first := int64(e*perEpisode + 1)
		for i := range arrivals {
			arrivals[i] = float64(first+int64(i)) * 1e-9
		}
		want := EpisodeStats{
			Episode: uint64(e), P: p,
			FirstArrival: first, LastArrival: first + p - 1, Released: first + p,
			Spread: stats.StdDev(arrivals), SyncDelay: 1e-9,
			// Nanoseconds of spread against the default 20µs counter: the
			// model's degree for simultaneous arrival, planned from the
			// start, so no re-plan rebuilds.
			Degree: 2,
		}
		if got != want {
			t.Fatalf("episode %d reported %+v, want %+v", e, got, want)
		}
	}
}

// recordingPolicy is a placement policy that keeps what it was shown.
type recordingPolicy struct{ observed [][]float64 }

func (r *recordingPolicy) Observe(lags []float64) {
	r.observed = append(r.observed, append([]float64(nil), lags...))
}
func (r *recordingPolicy) Order() []int   { return nil }
func (r *recordingPolicy) String() string { return "recording" }

// TestLagsIntoUnmeasuredEpisode: the parity buffer an unmeasured episode
// would have stamped still holds an earlier episode's arrivals, and those
// are not its lags — LagsInto answers nil. A placement policy, for which
// every episode is measured, is shown each episode's own.
func TestLagsIntoUnmeasuredEpisode(t *testing.T) {
	b, episode := drivenReconfigurable(4, ReconfigConfig{ReplanEvery: 3})
	for e := 0; e < 5; e++ {
		episode(wideGap) // episode 2 is measured and leaves its stamps in buffer 0
	}
	for _, e := range []uint64{3, 4} {
		if lags := b.LagsInto(e, nil); lags != nil {
			t.Errorf("LagsInto(%d) on an unmeasured episode = %v, want nil", e, lags)
		}
	}

	var now int64
	pol := &recordingPolicy{}
	pb := NewReconfigurable(4, ReconfigConfig{ReplanEvery: 3}, WithPlacementPolicy(pol), withClock(func() int64 { return now }))
	for e := 1; e <= 4; e++ {
		for id := 0; id < 4; id++ {
			now += int64(e) * 1e9 // episode e's arrivals are e seconds apart
			pb.Arrive(id)
		}
		for id := 0; id < 4; id++ {
			pb.Await(id)
		}
	}
	if len(pol.observed) != 4 {
		t.Fatalf("the policy was shown %d episodes of 4", len(pol.observed))
	}
	for i, lags := range pol.observed {
		e := float64(i + 1)
		if len(lags) != 4 || lags[0] != 0 || lags[1] != e || lags[2] != 2*e || lags[3] != 3*e {
			t.Errorf("episode %d: policy shown %v, want [0 %g %g %g]", i, lags, e, 2*e, 3*e)
		}
	}
}

// TestReconfigurableMatchesController drives one arrival schedule through
// a ReconfigurableBarrier (Observer attached, on the test's clock) and
// through a loadmodel.Controller fed the same lags and spreads: after
// every release both run the same epoch, P, degree and placement order.
// The schedule has a straggler that moves, a spread step that widens the
// degree and a queued Grow. Two checks of the test's own hold the shared
// rule to the documented one: σ is the 0.2-weighted EWMA of the spreads,
// and nothing changes off the ReplanEvery cadence but the Grow.
func TestReconfigurableMatchesController(t *testing.T) {
	const (
		p0, grow, every = 8, 2, 3
		episodes        = 42
		growAt          = 30 // the release that admits the grown ids
	)
	// offset is arrival id's time into episode k: ids in order, gap apart,
	// and one straggler 300µs late, id 5 and from episode 12 on id 1; the
	// gap steps from 10µs to wideGap at episode 24.
	offset := func(k, id int) int64 {
		gap := 10 * time.Microsecond
		if k >= 24 {
			gap = wideGap
		}
		d := time.Duration(id) * gap
		straggler := 5
		if k >= 12 {
			straggler = 1
		}
		if id == straggler {
			d += 300 * time.Microsecond
		}
		return int64(k)*int64(time.Second) + int64(d)
	}
	mk, ok := PlacementByName("reactive")
	if !ok {
		t.Fatal("no reactive policy")
	}
	var now int64
	b := NewReconfigurable(p0, ReconfigConfig{ReplanEvery: every, Tc: drivenTc},
		WithPlacementPolicy(mk()), WithObserver(observerFunc(func(EpisodeStats) {})), withClock(func() int64 { return now }))
	ctl := loadmodel.NewController(every, drivenTc, 0, mk())
	cur := ctl.Replan(loadmodel.Plan{}, p0)

	var epoch uint64
	var sigma float64
	seen := map[string]int{}
	for k := 0; k < episodes; k++ {
		if k == growAt {
			if _, err := b.Grow(grow); err != nil {
				t.Fatal(err)
			}
		}
		n := b.Participants()
		stamps, lags := make([]float64, n), make([]float64, n)
		first := offset(k, 0)
		for id := 0; id < n; id++ {
			now = offset(k, id)
			first = min(first, now)
			stamps[id] = float64(now) * 1e-9
			b.Arrive(id)
		}
		for id := 0; id < n; id++ {
			b.Await(id)
			lags[id] = float64(offset(k, id)-first) * 1e-9
		}

		target := p0
		if k >= growAt {
			target = p0 + grow
		}
		spread := stats.StdDev(stamps)
		next := cur
		change := ctl.Step(&next, &loadmodel.Episode{Seq: uint64(k), Spread: spread, Measured: true, Lags: lags, Target: target})
		switch change {
		case loadmodel.NewEpoch:
			epoch++
			if next.P != cur.P {
				seen["grow"]++
			} else {
				seen["degree"]++
			}
		case loadmodel.Reorder:
			seen["reorder"]++
		}
		if change != loadmodel.Same && (k+1)%every != 0 && next.P == cur.P {
			t.Errorf("episode %d: the controller changed the plan off the cadence of %d", k, every)
		}
		cur = next

		if k == 0 {
			sigma = spread
		} else {
			sigma = 0.8*sigma + 0.2*spread
		}
		if got := ctl.Sigma(); math.Abs(got-sigma) > 1e-12*sigma {
			t.Fatalf("episode %d: controller σ %g, want the 0.2-weighted EWMA %g", k, got, sigma)
		}
		st := b.state.Load()
		if b.Epoch() != epoch || st.P != cur.P || st.tree.Degree != cur.Degree || !slices.Equal(st.Order, cur.Order) || b.Sigma() != ctl.Sigma() {
			t.Fatalf("after episode %d the barrier runs epoch %d, p %d, degree %d, order %v, σ %g; the controller %d, %d, %d, %v, %g",
				k, b.Epoch(), st.P, st.tree.Degree, st.Order, b.Sigma(), epoch, cur.P, cur.Degree, cur.Order, ctl.Sigma())
		}
	}
	for _, what := range []string{"grow", "degree", "reorder"} {
		if seen[what] == 0 {
			t.Errorf("the schedule never exercised a %s (%v)", what, seen)
		}
	}
	t.Logf("changes: %v; final plan p %d degree %d order %v", seen, cur.P, cur.Degree, cur.Order)
}
