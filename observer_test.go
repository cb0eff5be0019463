package softbarrier

import (
	"sync"
	"testing"
	"time"
)

// recordingObserver captures every emitted EpisodeStats. The mutex is
// defensive: emission points are totally ordered by the barrier itself,
// but the observer contract does not promise callers run on one goroutine.
type recordingObserver struct {
	mu     sync.Mutex
	events []EpisodeStats
}

func (r *recordingObserver) Episode(st EpisodeStats) {
	r.mu.Lock()
	r.events = append(r.events, st)
	r.mu.Unlock()
}

func (r *recordingObserver) snapshot() []EpisodeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]EpisodeStats(nil), r.events...)
}

// TestObserverEpisodeStats drives each of the seven barriers through a
// fixed number of episodes and checks the shared telemetry contract: the
// observer fires exactly once per episode, with 0-based monotonically
// increasing episode indices, the right participant count, and coherent
// timing (last ≥ first arrival, sync delay ≥ 0).
func TestObserverEpisodeStats(t *testing.T) {
	const (
		p        = 5
		episodes = 40
	)
	for name, mk := range map[string]func(Observer) Barrier{
		"central":    func(o Observer) Barrier { return NewCentral(p, WithObserver(o)) },
		"tree-d4":    func(o Observer) Barrier { return NewCombiningTree(p, 4, WithObserver(o)) },
		"mcs-d4":     func(o Observer) Barrier { return NewMCSTree(p, 4, WithObserver(o)) },
		"dynamic-d4": func(o Observer) Barrier { return NewDynamic(p, 4, WithObserver(o)) },
		"adaptive": func(o Observer) Barrier {
			return NewReconfigurable(p, ReconfigConfig{ReplanEvery: 64}, WithObserver(o))
		},
		"dissemination": func(o Observer) Barrier { return NewDissemination(p, WithObserver(o)) },
		"tournament":    func(o Observer) Barrier { return NewTournament(p, WithObserver(o)) },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			obs := &recordingObserver{}
			bar := mk(obs)
			var wg sync.WaitGroup
			wg.Add(p)
			for id := 0; id < p; id++ {
				go func(id int) {
					defer wg.Done()
					for e := 0; e < episodes; e++ {
						bar.Wait(id)
					}
				}(id)
			}
			wg.Wait()

			events := obs.snapshot()
			if len(events) != episodes {
				t.Fatalf("observer fired %d times, want exactly %d", len(events), episodes)
			}
			for i, st := range events {
				if st.Episode != uint64(i) {
					t.Errorf("event %d: episode index %d, want %d (monotone from 0)", i, st.Episode, i)
				}
				if st.P != p {
					t.Errorf("event %d: P = %d, want %d", i, st.P, p)
				}
				if st.LastArrival < st.FirstArrival {
					t.Errorf("event %d: last arrival %d before first arrival %d", i, st.LastArrival, st.FirstArrival)
				}
				if st.SyncDelay < 0 {
					t.Errorf("event %d: negative sync delay %g", i, st.SyncDelay)
				}
				if st.Spread < 0 {
					t.Errorf("event %d: negative spread %g", i, st.Spread)
				}
			}
		})
	}
}

// TestObserverSeesSwapsAndAdaptations checks the barrier-specific Extra
// fields flow through: dynamic reports cumulative swaps, adaptive reports
// its epoch (its adaptation count) and current degree.
func TestObserverSeesSwapsAndAdaptations(t *testing.T) {
	const p, episodes = 4, 8
	run := func(bar Barrier, obs *recordingObserver) []EpisodeStats {
		var wg sync.WaitGroup
		wg.Add(p)
		for id := 0; id < p; id++ {
			go func(id int) {
				defer wg.Done()
				for e := 0; e < episodes; e++ {
					bar.Wait(id)
				}
			}(id)
		}
		wg.Wait()
		return obs.snapshot()
	}

	dynObs := &recordingObserver{}
	dyn := NewDynamic(p, 2, WithObserver(dynObs))
	events := run(dyn, dynObs)
	if len(events) != episodes {
		t.Fatalf("dynamic: %d events, want %d", len(events), episodes)
	}
	if got, want := events[len(events)-1].Swaps, dyn.Swaps(); got != want {
		t.Errorf("dynamic: final event reports %d swaps, barrier reports %d", got, want)
	}

	adObs := &recordingObserver{}
	ad := NewReconfigurable(p, ReconfigConfig{ReplanEvery: 64}, WithObserver(adObs))
	events = run(ad, adObs)
	if len(events) != episodes {
		t.Fatalf("adaptive: %d events, want %d", len(events), episodes)
	}
	last := events[len(events)-1]
	if last.Degree != ad.Degree() {
		t.Errorf("adaptive: final event degree %d, barrier degree %d", last.Degree, ad.Degree())
	}
	if last.Epoch != ad.Epoch() {
		t.Errorf("adaptive: final event epoch %d, barrier reports %d", last.Epoch, ad.Epoch())
	}
}

// TestAggregateObserver folds episodes through the Aggregate observer and
// checks the summary arithmetic and its σ estimate.
func TestAggregateObserver(t *testing.T) {
	const p, episodes = 6, 25
	agg := NewAggregate()
	bar := NewCombiningTree(p, 4, WithObserver(agg))
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				bar.Wait(id)
			}
		}(id)
	}
	wg.Wait()

	s := agg.Summary()
	if s.Episodes != episodes {
		t.Fatalf("aggregate saw %d episodes, want %d", s.Episodes, episodes)
	}
	if s.P != p {
		t.Errorf("aggregate P = %d, want %d", s.P, p)
	}
	if s.MeanSyncDelay < 0 || s.MaxSyncDelay < s.MeanSyncDelay {
		t.Errorf("incoherent sync delays: mean %g, max %g", s.MeanSyncDelay, s.MaxSyncDelay)
	}
	if s.Sigma < 0 {
		t.Errorf("negative measured sigma %g", s.Sigma)
	}
}

// TestReconfigurableSigmaOnCadence pins what an unobserved barrier
// measures: its σ estimate counts the episodes it measured — all of them
// at ReplanEvery 1, the one in five its re-plans read at ReplanEvery 5 —
// and its degree stays in [2, p] whatever σ it settles on.
func TestReconfigurableSigmaOnCadence(t *testing.T) {
	const p = 4
	for _, c := range []struct {
		replanEvery int
		measured    uint64
	}{{1, 10}, {5, 2}} {
		b, episode := drivenReconfigurable(p, ReconfigConfig{ReplanEvery: c.replanEvery})
		if n := b.ReconfigStats().Evals; n != 0 {
			t.Fatalf("fresh barrier reports %d episodes", n)
		}
		for e := 0; e < 10; e++ {
			episode(time.Microsecond)
		}
		if sigma, n := b.Sigma(), b.ReconfigStats().Evals; n != c.measured || sigma <= 0 {
			t.Fatalf("ReplanEvery %d: σ %g from %d episodes after 10, want a positive σ from %d", c.replanEvery, sigma, n, c.measured)
		}
		if d := b.Degree(); d < 2 || d > p {
			t.Errorf("ReplanEvery %d: degree %d outside [2, %d]", c.replanEvery, d, p)
		}
	}
}

// TestCentralWaitNoObserverAllocs pins the nil-observer fast path: a Wait
// episode with no observer installed performs zero heap allocations.
func TestCentralWaitNoObserverAllocs(t *testing.T) {
	bar := NewCentral(1)
	if n := testing.AllocsPerRun(100, func() { bar.Wait(0) }); n != 0 {
		t.Fatalf("central Wait with no observer allocates %v per episode, want 0", n)
	}
}
