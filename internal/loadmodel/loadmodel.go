// Package loadmodel is the pluggable load-imbalance subsystem: Generator
// produces per-participant imbalance (the work/arrival times that drive
// simulations, experiments and live jitter loops), and PlacementPolicy
// (policy.go) consumes per-participant arrival-lag history and emits the
// placement order that puts predicted stragglers in a combining tree's
// shallowest slots.
//
// The package owns the imbalance regimes — iid draws, static
// per-participant skew (the paper's systemic imbalance), AR(1) drift
// (evolving imbalance) — plus the injector shapes the related work
// motivates: multiplicative history noise (charm++ load_imb_by_history),
// heavy right tails, bursty correlated slowdowns, and chunk-boundary-aligned
// skew (the LFSR cycle-distribution study: C work chunks over N workers
// leave C mod N workers one chunk heavier). internal/barriersim couples
// them across episodes (fuzzy-barrier slack) and replays recorded traces.
package loadmodel

import (
	"fmt"
	"math"

	"softbarrier/internal/stats"
)

// Generator produces per-participant work times, one episode at a time.
// It is the interface the simulator, the experiment tables and the live
// examples all draw imbalance from, so a new imbalance model plugs into
// every consumer at once.
type Generator interface {
	// P returns the number of participants.
	P() int
	// Times fills dst (length P) with the work times of episode k,
	// drawing randomness from r. Episodes must be requested in order
	// starting at 0; implementations may keep per-participant state.
	Times(k int, r *stats.RNG, dst []float64)
	// String describes the generator for table captions and cache keys.
	String() string
}

// IID draws every participant's work time independently from Dist each
// episode: the paper's non-deterministic load imbalance.
type IID struct {
	N    int
	Dist stats.Distribution
}

// P returns the participant count.
func (w IID) P() int { return w.N }

// Times draws N iid samples.
func (w IID) Times(_ int, r *stats.RNG, dst []float64) {
	for i := range dst[:w.N] {
		dst[i] = w.Dist.Sample(r)
	}
}

func (w IID) String() string { return fmt.Sprintf("iid p=%d %v", w.N, w.Dist) }

// StaticSkew adds a fixed per-participant offset to a base generator: the
// paper's systemic load imbalance, where the same participants are
// consistently late.
type StaticSkew struct {
	Base    Generator
	Offsets []float64
}

// P returns the participant count.
func (w StaticSkew) P() int { return w.Base.P() }

// Times draws base times and adds the fixed offsets.
func (w StaticSkew) Times(k int, r *stats.RNG, dst []float64) {
	w.Base.Times(k, r, dst)
	for i := range dst[:w.P()] {
		dst[i] += w.Offsets[i]
	}
}

func (w StaticSkew) String() string { return fmt.Sprintf("systemic over %v", w.Base) }

// LinearOffsets returns p offsets evenly spaced in [-spread/2, spread/2],
// a simple systemic-imbalance profile.
func LinearOffsets(p int, spread float64) []float64 {
	off := make([]float64, p)
	if p == 1 {
		return off
	}
	for i := range off {
		off[i] = spread * (float64(i)/float64(p-1) - 0.5)
	}
	return off
}

// SampleArrivals draws a single episode of arrival times for p processors
// iid from dist: the single-barrier experiments of Figs. 2–4 and 9.
func SampleArrivals(p int, dist stats.Distribution, r *stats.RNG) []float64 {
	dst := make([]float64, p)
	for i := range dst {
		dst[i] = dist.Sample(r)
	}
	return dst
}

// Drift drifts each participant's bias as an AR(1) process with
// autocorrelation Rho and innovation scale InnovSigma, on top of iid draws
// from Dist: the paper's evolving workload imbalance, "where the workload
// slowly fluctuates from iteration to iteration".
type Drift struct {
	N          int
	Dist       stats.Distribution
	Rho        float64
	InnovSigma float64

	bias []float64
}

// P returns the participant count.
func (w *Drift) P() int { return w.N }

// Times draws iid samples plus the drifting per-participant bias.
func (w *Drift) Times(_ int, r *stats.RNG, dst []float64) {
	if w.bias == nil {
		w.bias = make([]float64, w.N)
	}
	for i := range dst[:w.N] {
		w.bias[i] = w.Rho*w.bias[i] + w.InnovSigma*r.NormFloat64()
		dst[i] = w.Dist.Sample(r) + w.bias[i]
	}
}

func (w *Drift) String() string {
	return fmt.Sprintf("evolving p=%d %v rho=%g innov=%g", w.N, w.Dist, w.Rho, w.InnovSigma)
}

// HistoryNoise multiplies a base generator's times by per-participant
// multiplicative random-walk factors — the charm++ load_imb_by_history
// injector shape: a participant's relative speed wanders slowly, so its
// recent history predicts its near future without being constant. Each
// episode every factor is multiplied by (1 + U[-Step, Step]) and clamped
// to [1/Limit, Limit].
type HistoryNoise struct {
	Base Generator
	// Step is the per-episode multiplicative step bound; 0 selects 0.05.
	Step float64
	// Limit bounds the walk's factor away from 0 and ∞; 0 selects 4.
	Limit float64

	fac []float64
}

// P returns the participant count.
func (w *HistoryNoise) P() int { return w.Base.P() }

// Times draws base times and applies the per-participant walk factors.
func (w *HistoryNoise) Times(k int, r *stats.RNG, dst []float64) {
	step, limit := w.Step, w.Limit
	if step == 0 {
		step = 0.05
	}
	if limit == 0 {
		limit = 4
	}
	if w.fac == nil {
		w.fac = make([]float64, w.P())
		for i := range w.fac {
			w.fac[i] = 1
		}
	}
	w.Base.Times(k, r, dst)
	for i := range dst[:w.P()] {
		f := w.fac[i] * (1 + step*(2*r.Float64()-1))
		if f > limit {
			f = limit
		} else if f < 1/limit {
			f = 1 / limit
		}
		w.fac[i] = f
		dst[i] *= f
	}
}

func (w *HistoryNoise) String() string {
	return fmt.Sprintf("history-noise(step=%g) over %v", w.Step, w.Base)
}

// HeavyTail draws iid Pareto-tailed delays: Scale·(U^(-1/Alpha) − 1),
// which starts at 0 and has a power-law right tail — occasional
// participants are very late, with no persistence across episodes.
// Alpha must exceed 1 for a finite mean; 0 selects 2.
type HeavyTail struct {
	N     int
	Scale float64
	Alpha float64
}

// P returns the participant count.
func (w HeavyTail) P() int { return w.N }

// Times draws N iid Pareto-tailed samples.
func (w HeavyTail) Times(_ int, r *stats.RNG, dst []float64) {
	alpha := w.Alpha
	if alpha == 0 {
		alpha = 2
	}
	for i := range dst[:w.N] {
		u := r.Float64()
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		dst[i] = w.Scale * (math.Pow(u, -1/alpha) - 1)
	}
}

func (w HeavyTail) String() string {
	return fmt.Sprintf("heavy-tail p=%d scale=%g alpha=%g", w.N, w.Scale, w.Alpha)
}

// Bursty overlays correlated slowdown bursts on a base generator: each
// participant carries a two-state Markov chain (quiet/bursting) and adds
// Extra to its time while bursting. OnProb is the per-episode probability
// of entering a burst, StayProb of remaining in one — so bursts have
// geometric length 1/(1−StayProb) and the same participant is slow for
// several consecutive episodes, which is exactly the regime where
// history-based placement beats reacting to the last arrival.
type Bursty struct {
	Base  Generator
	Extra float64
	// OnProb is P(enter burst | quiet); 0 selects 0.02.
	OnProb float64
	// StayProb is P(stay | bursting); 0 selects 0.9.
	StayProb float64

	state []bool
}

// P returns the participant count.
func (w *Bursty) P() int { return w.Base.P() }

// Times draws base times, advances each participant's burst chain, and
// adds Extra to the bursting ones.
func (w *Bursty) Times(k int, r *stats.RNG, dst []float64) {
	on, stay := w.OnProb, w.StayProb
	if on == 0 {
		on = 0.02
	}
	if stay == 0 {
		stay = 0.9
	}
	if w.state == nil {
		w.state = make([]bool, w.P())
	}
	w.Base.Times(k, r, dst)
	for i := range dst[:w.P()] {
		u := r.Float64()
		if w.state[i] {
			w.state[i] = u < stay
		} else {
			w.state[i] = u < on
		}
		if w.state[i] {
			dst[i] += w.Extra
		}
	}
}

func (w *Bursty) String() string {
	return fmt.Sprintf("bursty(extra=%g on=%g stay=%g) over %v", w.Extra, w.OnProb, w.StayProb, w.Base)
}

// ChunkSkew models chunk-quantization imbalance, the LFSR cycle-study
// shape: Chunks equal work chunks of ChunkTime each are dealt round-robin
// over N participants, so the first Chunks mod N participants carry one
// extra chunk every episode — a systemic step imbalance whose magnitude
// is one chunk, aligned to the chunk boundary rather than drawn from a
// distribution. Jitter, when non-nil, adds an iid sample per participant.
type ChunkSkew struct {
	N         int
	Chunks    int
	ChunkTime float64
	Jitter    stats.Distribution
}

// P returns the participant count.
func (w ChunkSkew) P() int { return w.N }

// Times assigns each participant its chunk count times ChunkTime.
func (w ChunkSkew) Times(_ int, r *stats.RNG, dst []float64) {
	base := w.Chunks / w.N
	extra := w.Chunks % w.N
	for i := range dst[:w.N] {
		n := base
		if i < extra {
			n++
		}
		dst[i] = float64(n) * w.ChunkTime
		if w.Jitter != nil {
			dst[i] += w.Jitter.Sample(r)
		}
	}
}

func (w ChunkSkew) String() string {
	return fmt.Sprintf("chunk-skew p=%d chunks=%d t=%g", w.N, w.Chunks, w.ChunkTime)
}

// Phase is one segment of a Phased generator.
type Phase struct {
	// Episodes is how many episodes the phase lasts; the final phase's
	// count is ignored (it runs forever).
	Episodes int
	// Gen produces the phase's times; all phases must agree on P.
	Gen Generator
}

// Phased switches generators on an episode schedule — the "quiet, then
// imbalanced, then quiet again" workloads the examples and adaptation
// demos drive, without a hand-rolled jitter loop per call site. Each
// phase's generator sees episode indices local to the phase.
type Phased struct {
	Phases []Phase
}

// P returns the participant count (of the first phase).
func (w Phased) P() int { return w.Phases[0].Gen.P() }

// Times dispatches episode k to its phase's generator.
func (w Phased) Times(k int, r *stats.RNG, dst []float64) {
	local := k
	for i, ph := range w.Phases {
		if i == len(w.Phases)-1 || local < ph.Episodes {
			ph.Gen.Times(local, r, dst)
			return
		}
		local -= ph.Episodes
	}
}

func (w Phased) String() string {
	s := "phased["
	for i, ph := range w.Phases {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("%d x %v", ph.Episodes, ph.Gen)
	}
	return s + "]"
}

// Schedule materializes episodes of per-participant times from g,
// seeded deterministically — the helper that turns any Generator into a
// precomputed sleep schedule for live jitter loops (examples, demos) and
// into the rows of a recorded trace (barriersim record).
func Schedule(g Generator, episodes int, seed uint64) [][]float64 {
	r := stats.NewRNG(seed)
	out := make([][]float64, episodes)
	for k := range out {
		out[k] = make([]float64, g.P())
		g.Times(k, r, out[k])
	}
	return out
}
