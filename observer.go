package softbarrier

import (
	"sync"

	rt "softbarrier/internal/runtime"
)

// EpisodeStats is one completed barrier episode's telemetry: episode
// index, first/last arrival timestamps (nanoseconds on the barrier's
// monotonic clock), the measured arrival spread σ (seconds), the
// synchronization delay (release − last arrival, seconds), the barrier's
// cumulative swap count and its configuration epoch. See the field
// documentation in internal/runtime.
type EpisodeStats = rt.EpisodeStats

// Observer receives one EpisodeStats per completed episode, invoked by the
// participant that released the episode. Calls are totally ordered by the
// barrier's own happens-before edges (episode k is always reported before
// episode k+1), so an implementation only needs synchronization against
// its own concurrent readers. Install one with WithObserver.
type Observer = rt.Observer

// Aggregate is an Observer that folds every episode into running
// aggregates — episode count, an EWMA estimate of the arrival spread σ,
// and sync-delay statistics. It is cheap enough to leave attached in
// production.
type Aggregate struct {
	est rt.SigmaEstimator

	mu        sync.Mutex
	episodes  uint64
	p         int
	spreadSum float64
	syncSum   float64
	syncMax   float64
	swaps     uint64
	epoch     uint64
	degree    int
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	a := &Aggregate{}
	a.est.Init()
	return a
}

// Episode implements Observer.
func (a *Aggregate) Episode(st EpisodeStats) {
	a.est.Observe(st.Spread)
	a.mu.Lock()
	a.episodes++
	a.p = st.P
	a.spreadSum += st.Spread
	a.syncSum += st.SyncDelay
	if st.SyncDelay > a.syncMax {
		a.syncMax = st.SyncDelay
	}
	a.swaps = st.Swaps
	a.epoch = st.Epoch
	a.degree = st.Degree
	a.mu.Unlock()
}

// AggregateSummary is a consistent snapshot of an Aggregate.
type AggregateSummary struct {
	// Episodes is how many episodes have been observed.
	Episodes uint64
	// P is the participant count of the last observed episode.
	P int
	// Sigma is the EWMA arrival-spread estimate, seconds.
	Sigma float64
	// MeanSpread is the arithmetic mean of per-episode spreads, seconds.
	MeanSpread float64
	// MeanSyncDelay and MaxSyncDelay summarize per-episode sync delays,
	// seconds.
	MeanSyncDelay float64
	// MaxSyncDelay is the largest observed sync delay, seconds.
	MaxSyncDelay float64
	// Swaps is the barrier's cumulative swap count as of the last
	// episode.
	Swaps uint64
	// Epoch is the barrier's configuration epoch as of the last episode,
	// which is also its cumulative tree-rebuild count.
	Epoch uint64
	// Degree is the tree degree reported by the last episode (0 for
	// degree-free barriers).
	Degree int
}

// Summary returns a snapshot of the aggregates.
func (a *Aggregate) Summary() AggregateSummary {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := AggregateSummary{
		Episodes:     a.episodes,
		P:            a.p,
		Sigma:        a.est.Sigma(),
		MaxSyncDelay: a.syncMax,
		Swaps:        a.swaps,
		Epoch:        a.epoch,
		Degree:       a.degree,
	}
	if a.episodes > 0 {
		s.MeanSpread = a.spreadSum / float64(a.episodes)
		s.MeanSyncDelay = a.syncSum / float64(a.episodes)
	}
	return s
}
