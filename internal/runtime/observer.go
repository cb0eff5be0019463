package runtime

// EpisodeStats is one completed barrier episode's telemetry, emitted by
// whichever participant released the episode. Timestamps are nanoseconds on
// the barrier's own monotonic clock (zero at construction).
type EpisodeStats struct {
	// Episode is the 0-based episode index; successive emissions increase
	// it by exactly one.
	Episode uint64
	// P is the barrier's participant count.
	P int
	// FirstArrival and LastArrival bound the episode's arrival times.
	FirstArrival int64
	// LastArrival is the latest arrival timestamp of the episode.
	LastArrival int64
	// Released is when the releasing participant published the release.
	Released int64
	// Spread is the sample standard deviation of the episode's arrival
	// times, in seconds — the σ the paper's model consumes.
	Spread float64
	// SyncDelay is Released − LastArrival in seconds, clamped at zero: the
	// synchronization cost the paper charges to the barrier itself.
	SyncDelay float64
	// Swaps is the barrier's cumulative placement-swap count (dynamic
	// placement barriers; zero elsewhere).
	Swaps uint64
	// Degree is the current combining-tree degree (zero for degree-free
	// barriers such as central, dissemination and tournament).
	Degree int
	// Epoch is the barrier's 0-based configuration epoch, which is also
	// its cumulative tree-rebuild count (reconfigurable barriers; zero
	// elsewhere). It increments when a rebuild is applied at the episode's
	// release point, so the emitting episode already ran the configuration
	// of the *previous* epoch.
	Epoch uint64
}

// Observer receives one EpisodeStats per completed episode. Episode is
// invoked by the releasing participant, so successive calls may come from
// different goroutines but are totally ordered by the barrier's own
// happens-before edges; an implementation needs synchronization only
// against its *own* concurrent readers, not against other Episode calls.
type Observer interface {
	Episode(EpisodeStats)
}

// Extra carries the barrier-specific EpisodeStats fields into
// Recorder.Emit; barriers without the corresponding feature leave the
// fields zero.
type Extra struct {
	Swaps  uint64
	Degree int
	Epoch  uint64
}
