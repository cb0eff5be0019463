package runtime

import (
	"math"
	"time"
)

// Recorder collects per-episode arrival timestamps and turns them into
// EpisodeStats for an Observer. A nil *Recorder is the disabled fast path:
// every method is a nil-check and return, so barriers built without an
// observer pay one predictable branch and zero allocations per episode.
//
// Arrival slots are double-buffered by episode parity: a participant racing
// ahead into episode k+1 writes the other buffer, and it cannot reach
// episode k+2 (same parity as k) before the episode-k releaser — who must
// release k before anyone passes k+1 — has finished reading. Measure/Emit
// are called only by the releasing participant, at a point ordered before
// the episode's release, so they need no locking.
type Recorder struct {
	obs   Observer
	clock func() int64
	zero  int64 // the clock's reading at construction, subtracted from what Measure reports
	p     int
	// armed is the earliest episode that is measured; an arrival in one
	// before it reads no clock. Emit moves it on by step (0: measure all,
	// never written) before the release that lets the next arrivals read it.
	armed, step uint64
	episode     uint64 // next index reported to the observer; releaser-only
	arrivals    [2][]PaddedInt64
}

// clockBase anchors monotonicNow: a package-level function, so a recorder
// on the default clock holds no closure of its own.
var clockBase = time.Now()

func monotonicNow() int64 { return int64(time.Since(clockBase)) }

// New returns a recorder for p participants reporting to obs, measuring
// every episode. With a nil obs it measures the last of each `every`
// episodes — every−1, 2·every−1, … — for a barrier whose own control loop
// reads them on that cadence, and every = 0 returns nil, the disabled
// recorder. clock overrides the nanosecond clock; nil selects a monotonic
// one. Either way Measure reports times from construction.
func New(p int, obs Observer, clock func() int64, every uint64) *Recorder {
	if obs == nil && every == 0 {
		return nil
	}
	r := &Recorder{obs: obs, clock: clock, p: p}
	if clock == nil {
		r.clock, r.zero = monotonicNow, monotonicNow()
	}
	if obs == nil && every > 1 {
		r.armed, r.step = every-1, every
	}
	r.buffer(p)
	return r
}

// buffer gives the recorder both parity buffers for p participants, in
// one allocation.
func (r *Recorder) buffer(p int) {
	both := make([]PaddedInt64, 2*p)
	r.arrivals = [2][]PaddedInt64{both[:p:p], both[p:]}
}

// Resize re-buffers the recorder for p participants. It must be called by
// the releasing participant after Measure and before the episode's
// release — the only point where both parity buffers are quiescent — so an
// elastic barrier can change membership without tearing a measurement.
func (r *Recorder) Resize(p int) {
	if r == nil || p == r.p {
		return
	}
	r.p = p
	r.buffer(p)
}

// Arrive timestamps participant id's arrival for the given episode if it
// is measured. It must be called before the participant contributes to the
// episode's completion (counter update, flag signal, …) so the releaser's
// read is ordered after the write. The guard fills the inliner's budget.
func (r *Recorder) Arrive(id int, episode uint64) {
	if r == nil || episode < r.armed {
		return
	}
	r.arrivals[episode&1][id].V = r.clock()
}

// Measurement is one episode's raw measurement, produced by Measure and
// consumed by Emit; the split lets a barrier act on the measured spread
// (adaptation) before publishing the episode to the observer.
type Measurement struct {
	First, Last, Released int64
	Spread                float64
}

// Measure reads the episode's arrival slots and timestamps the release,
// reporting times from the recorder's construction. It
// must be called by the releasing participant before the episode is
// released, when the slots are quiescent. ok is false on a nil recorder and
// for an episode that was not measured: there is then nothing to Emit.
func (r *Recorder) Measure(episode uint64) (m Measurement, ok bool) {
	if r == nil || episode < r.armed {
		return Measurement{}, false
	}
	slots := r.arrivals[episode&1]
	if len(slots) == 0 {
		// A recorder shrunk to zero participants has nothing to measure;
		// still stamp the release so Emit's delay math stays sane.
		return Measurement{Released: r.clock() - r.zero}, true
	}
	first, last := slots[0].V, slots[0].V
	sum := 0.0
	for i := range slots {
		v := slots[i].V
		sum += float64(float64(v) * 1e-9)
		first = min(first, v)
		last = max(last, v)
	}
	return Measurement{
		First:    first - r.zero,
		Last:     last - r.zero,
		Released: r.clock() - r.zero,
		Spread:   spread(slots, sum),
	}, true
}

// spread is the sample standard deviation of the slots' stamps in seconds,
// given their sum: stats.StdDev's two passes, in its order and rounding,
// read off the slots rather than a copy of them.
func spread(slots []PaddedInt64, sum float64) float64 {
	if len(slots) < 2 {
		return 0
	}
	mean := sum / float64(len(slots))
	s := 0.0
	for i := range slots {
		d := float64(float64(slots[i].V)*1e-9) - mean
		s += d * d
	}
	return math.Sqrt(s / float64(len(slots)-1))
}

// LagsInto reads the episode's arrival slots into dst as per-participant
// lags — arrival time minus the episode's earliest arrival, seconds —
// the signal a placement policy consumes. dst is reused when it has the
// capacity. Like Measure it is releaser-only, before the episode's
// release and Emit; a nil recorder and an unmeasured episode return nil
// (never an earlier episode's stamps), and a recorder shrunk to zero
// participants returns dst[:0] (indexing no slots would panic).
func (r *Recorder) LagsInto(episode uint64, dst []float64) []float64 {
	if r == nil || episode < r.armed {
		return nil
	}
	slots := r.arrivals[episode&1]
	if len(slots) == 0 {
		return dst[:0]
	}
	if cap(dst) < len(slots) {
		dst = make([]float64, len(slots))
	}
	dst = dst[:len(slots)]
	first := slots[0].V
	for i := range slots {
		if slots[i].V < first {
			first = slots[i].V
		}
	}
	for i := range slots {
		dst[i] = float64(slots[i].V-first) * 1e-9
	}
	return dst
}

// Emit publishes a measured episode to the observer (if any) and arms the
// next one. Like Measure it runs on the releasing participant only.
func (r *Recorder) Emit(m Measurement, ex Extra) {
	if r == nil {
		return
	}
	// Only a cadence recorder writes it, ordered by the gate its releaser
	// opens next; dissemination's emitter (step 0) has no release to order it.
	if r.step != 0 {
		r.armed += r.step
	}
	ep := r.episode
	r.episode++
	if r.obs == nil {
		return
	}
	delay := float64(m.Released-m.Last) * 1e-9
	if delay < 0 {
		delay = 0 // wall-clock skew guard; the clock is monotonic, but stay defensive
	}
	r.obs.Episode(EpisodeStats{
		Episode:      ep,
		P:            r.p,
		FirstArrival: m.First,
		LastArrival:  m.Last,
		Released:     m.Released,
		Spread:       m.Spread,
		SyncDelay:    delay,
		Swaps:        ex.Swaps,
		Degree:       ex.Degree,
		Epoch:        ex.Epoch,
	})
}

// Release is Measure followed by Emit, for barriers that do not act on the
// measurement themselves.
func (r *Recorder) Release(episode uint64, ex Extra) {
	if m, ok := r.Measure(episode); ok {
		r.Emit(m, ex)
	}
}
