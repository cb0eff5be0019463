package softbarrier

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	episodes := func() uint64 { _, n := b.MeasuredSigma(); return n }

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
	if st.Rebuilds < 2 {
		t.Errorf("rebuilds = %d, want ≥ 2 (shrink + grow)", st.Rebuilds)
	}
	if st.Epochs != st.Rebuilds+1 {
		t.Errorf("epochs = %d, want rebuilds+1 = %d", st.Epochs, st.Rebuilds+1)
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
