// Package barriersim simulates combining-tree barrier episodes with
// counter contention, reproducing the event-driven simulator of the paper.
//
// A barrier episode starts with every processor arriving at its first
// counter at a given time. Updating a counter occupies it exclusively for
// the counter-update time t_c, and concurrent updates serialize in FIFO
// order. The processor whose update completes a counter's fan-in proceeds
// to the parent counter; the update completing the root counter releases
// the barrier. The synchronization delay of the episode is the release
// time minus the latest arrival time.
//
// With dynamic placement enabled (the paper's §5 contribution), a
// processor that was the final updater of counters above its own swaps
// into the local slot of the highest such counter at the end of the
// episode, displacing that counter's previous local processor (the
// victim). The victim pays one extra communication at the start of the
// next episode to discover its new first counter.
//
// Consecutive episodes are coupled by Iterator, the fuzzy-barrier slack
// model, and Trace replays recorded work times as a load model. The
// imbalance regimes themselves are internal/loadmodel's generators.
package barriersim

import (
	"fmt"
	"math"

	"softbarrier/internal/eventsim"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
)

// Config configures a barrier simulation.
type Config struct {
	// Tc is the counter update time; 0 selects model.DefaultTc.
	Tc float64
	// Dynamic enables dynamic placement (victor/victim swaps). It has an
	// effect only on trees whose counters have local slots (MCS, Ring).
	// A swap victim pays Tc at its next episode to read its Destination
	// entry: the paper's one extra communication.
	Dynamic bool
	// LockDegradation models test-and-set-style locks whose update cost
	// grows with contention: an update issued while w earlier updates are
	// still queued costs Tc·(1 + LockDegradation·w) instead of Tc. The
	// paper's simulations assume an ideal queue lock (0, the default);
	// the EXT5 ablation sweeps this knob.
	LockDegradation float64
}

// EpisodeResult reports one barrier episode.
type EpisodeResult struct {
	// Release is the completion time of the final root update, in the
	// caller's (workload) time base.
	Release float64
	// LastArrival is the latest processor arrival, in the caller's time
	// base.
	LastArrival float64
	// SyncDelay is Release − LastArrival.
	SyncDelay float64
	// UpdateDelay is the contention-free floor of the delay: the number of
	// counters on the last arriver's path times t_c.
	UpdateDelay float64
	// ContentionDelay is SyncDelay − UpdateDelay.
	ContentionDelay float64
	// LastProcDepth is the number of counters updated by the processor
	// that performed the final root update (the paper's "depth seen by
	// the last processor releasing the barrier").
	LastProcDepth int
	// Comms counts remote communications: one per counter update plus one
	// per pending victim notification consumed this episode.
	Comms int
	// Swaps counts placement swaps performed at the end of this episode.
	Swaps int
	// Releaser is the processor that performed the final root update.
	Releaser int
}

// Tracer observes the events of a simulated episode. All times are in the
// simulator's internal (shifted, non-negative) time base of that episode.
// Implementations must not call back into the Sim.
type Tracer interface {
	// BeginEpisode starts a new episode trace.
	BeginEpisode()
	// Arrival records processor proc reaching the barrier at time t.
	Arrival(proc int, t float64)
	// Update records processor proc holding counter c during [start, end);
	// last reports whether this update completed the counter's fan-in.
	Update(proc, c int, start, end float64, last bool)
	// Swap records a dynamic-placement swap of victor into counter c,
	// displacing victim.
	Swap(victor, victim, c int)
	// Release records the episode's release by processor proc at time t.
	Release(proc int, t float64)
}

// Sim simulates successive barrier episodes over one combining tree. It is
// not safe for concurrent use.
type Sim struct {
	tc      float64
	degrade float64
	dynamic bool
	tree    *topology.Tree

	res       []eventsim.Resource
	count     []int
	highest   []int     // per proc: highest counter it completed this episode (-1 none)
	penalty   []float64 // per proc: pending victim-notification latency
	baseComms int

	release  float64
	releaser int

	tracer Tracer
}

// SetTracer installs (or, with nil, removes) an episode tracer.
func (s *Sim) SetTracer(tr Tracer) { s.tracer = tr }

// New creates a simulator over a clone of tree (the caller's tree is never
// mutated, even under dynamic placement).
func New(tree *topology.Tree, cfg Config) *Sim {
	if cfg.Tc == 0 {
		cfg.Tc = model.DefaultTc
	}
	if cfg.Tc < 0 {
		panic("barriersim: negative t_c")
	}
	if cfg.LockDegradation < 0 {
		panic("barriersim: negative lock degradation")
	}
	t := tree.Clone()
	s := &Sim{
		tc:      cfg.Tc,
		degrade: cfg.LockDegradation,
		dynamic: cfg.Dynamic,
		tree:    t,
		res:     make([]eventsim.Resource, len(t.Counters)),
		count:   make([]int, len(t.Counters)),
		highest: make([]int, t.P),
		penalty: make([]float64, t.P),
	}
	for i := range s.res {
		s.res[i].Name = fmt.Sprintf("counter%d", i)
	}
	// Every counter receives exactly fan-in updates per episode.
	for i := range t.Counters {
		s.baseComms += t.Counters[i].FanIn()
	}
	return s
}

// Tree returns the simulator's (mutating) tree, for inspection of the
// current placement.
func (s *Sim) Tree() *topology.Tree { return s.tree }

// Episode simulates one barrier episode with the given arrival times
// (len = P, any time base) and returns its metrics. Under dynamic
// placement the tree's placement may change as a side effect, taking
// effect from the next episode.
func (s *Sim) Episode(arrivals []float64) EpisodeResult {
	if len(arrivals) != s.tree.P {
		panic(fmt.Sprintf("barriersim: %d arrivals for %d processors", len(arrivals), s.tree.P))
	}
	// Normalize to a non-negative time base for the event engine.
	shift := -arrivals[0]
	for _, a := range arrivals[1:] {
		if -a > shift {
			shift = -a
		}
	}

	for i := range s.count {
		s.count[i] = 0
		s.res[i].Reset()
	}
	for i := range s.highest {
		s.highest[i] = -1
	}
	s.release = math.NaN()
	s.releaser = -1

	var sim eventsim.Simulator
	comms := s.baseComms
	lastArrival := math.Inf(-1)
	lastArriver := 0
	if s.tracer != nil {
		s.tracer.BeginEpisode()
	}
	for i, a := range arrivals {
		t := a + shift
		if a > lastArrival {
			lastArrival = a
			lastArriver = i
		}
		if p := s.penalty[i]; p > 0 {
			t += p
			s.penalty[i] = 0
			comms++
		}
		if s.tracer != nil {
			s.tracer.Arrival(i, t)
		}
		proc := i
		sim.ScheduleAt(t, func() { s.arrive(&sim, proc, s.tree.FirstCounter(proc)) })
	}
	sim.Run()
	if math.IsNaN(s.release) {
		panic("barriersim: episode ended without a release")
	}

	res := EpisodeResult{
		Release:       s.release - shift,
		LastArrival:   lastArrival,
		SyncDelay:     s.release - shift - lastArrival,
		UpdateDelay:   float64(s.tree.Depth(s.tree.FirstCounter(lastArriver))) * s.tc,
		LastProcDepth: s.tree.Depth(s.tree.FirstCounter(s.releaser)),
		Releaser:      s.releaser,
	}
	res.ContentionDelay = res.SyncDelay - res.UpdateDelay

	if s.dynamic {
		res.Swaps = s.applySwaps()
	}
	res.Comms = comms
	return res
}

// arrive processes processor proc's update of counter c at the current
// simulated time.
func (s *Sim) arrive(sim *eventsim.Simulator, proc, c int) {
	service := s.tc
	if s.degrade > 0 {
		// Test-and-set-style degradation: cost grows with the number of
		// updates still queued ahead of this one.
		if backlog := s.res[c].FreeAt() - sim.Now(); backlog > 0 {
			service = s.tc * (1 + s.degrade*backlog/s.tc)
		}
	}
	start, end := s.res[c].Use(sim.Now(), service)
	s.count[c]++
	last := s.count[c] == s.tree.Counters[c].FanIn()
	if s.tracer != nil {
		s.tracer.Update(proc, c, start, end, last)
	}
	if !last {
		return
	}
	// proc's update completed the counter: it is the final updater.
	s.highest[proc] = c
	if c == s.tree.Root {
		s.release = end
		s.releaser = proc
		if s.tracer != nil {
			s.tracer.Release(proc, end)
		}
		return
	}
	parent := s.tree.Counters[c].Parent
	sim.ScheduleAt(end, func() { s.arrive(sim, proc, parent) })
}

// applySwaps performs the end-of-episode placement swaps, mirroring the
// runtime DynamicBarrier's chained ascent: a processor that completed
// counters above its own swaps into each of them in turn (each swap's
// victim drops into the slot the victor just vacated), ending at the
// highest legal completed counter. Every victim is charged one pending
// communication for its next episode. It returns the number of swaps.
func (s *Sim) applySwaps() int {
	swaps := 0
	for proc := 0; proc < s.tree.P; proc++ {
		top := s.highest[proc]
		if top < 0 || top == s.tree.FirstCounter(proc) {
			continue
		}
		// The completed chain runs from the processor's first counter up
		// to (and including) top.
		path := s.tree.PathToRoot(s.tree.FirstCounter(proc))
		for _, c := range path[1:] {
			if s.tree.CanSwap(proc, c) {
				victim := s.tree.Swap(proc, c)
				s.penalty[victim] += s.tc
				swaps++
				if s.tracer != nil {
					s.tracer.Swap(proc, victim, c)
				}
			}
			if c == top {
				break
			}
		}
	}
	return swaps
}

// RunResult aggregates a multi-episode run.
type RunResult struct {
	// Episodes is the number of measured episodes (after warm-up).
	Episodes int
	// MeanSync, MeanUpdate and MeanContention are mean per-episode delays.
	MeanSync, MeanUpdate, MeanContention float64
	// MeanLastDepth is the mean depth of the releasing processor.
	MeanLastDepth float64
	// CommOverhead is total communications divided by the static baseline
	// (episodes × base updates); 1.0 means no overhead.
	CommOverhead float64
	// MeanSwaps is the mean number of swaps per episode.
	MeanSwaps float64
	// SyncDelays holds the per-episode synchronization delays.
	SyncDelays []float64
}

// Run simulates episodes barrier episodes fed by the workload iterator,
// discarding the first warmup episodes (placement convergence) from the
// aggregates. The iterator observes every episode's release, including
// warm-up ones.
func (s *Sim) Run(it *Iterator, warmup, episodes int) RunResult {
	return s.run(warmup, episodes, func() EpisodeResult {
		er := s.Episode(it.Next())
		it.Complete(er.Release)
		return er
	})
}

// RunIID simulates independent episodes whose arrivals are drawn iid from
// dist (the single-barrier experiments of Figs. 2–4 and 9); episodes are
// causally unlinked, so there is no warm-up or slack feedback.
func RunIID(tree *topology.Tree, cfg Config, dist stats.Distribution, episodes int, seed uint64) RunResult {
	s := New(tree, cfg)
	r := stats.NewRNG(seed)
	return s.run(0, episodes, func() EpisodeResult {
		return s.Episode(loadmodel.SampleArrivals(tree.P, dist, r))
	})
}

// run calls episode warmup+episodes times and aggregates the last
// episodes results.
func (s *Sim) run(warmup, episodes int, episode func() EpisodeResult) RunResult {
	if episodes <= 0 {
		panic("barriersim: need at least one measured episode")
	}
	rr := RunResult{Episodes: episodes, SyncDelays: make([]float64, 0, episodes)}
	comms := 0
	for k := 0; k < warmup+episodes; k++ {
		er := episode()
		if k < warmup {
			continue
		}
		rr.MeanSync += er.SyncDelay
		rr.MeanUpdate += er.UpdateDelay
		rr.MeanContention += er.ContentionDelay
		rr.MeanLastDepth += float64(er.LastProcDepth)
		rr.MeanSwaps += float64(er.Swaps)
		comms += er.Comms
		rr.SyncDelays = append(rr.SyncDelays, er.SyncDelay)
	}
	n := float64(episodes)
	rr.MeanSync /= n
	rr.MeanUpdate /= n
	rr.MeanContention /= n
	rr.MeanLastDepth /= n
	rr.MeanSwaps /= n
	rr.CommOverhead = float64(comms) / (n * float64(s.baseComms))
	return rr
}
