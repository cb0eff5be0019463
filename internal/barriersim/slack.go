package barriersim

import (
	"fmt"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
)

// Iterator produces the per-episode arrival times of an iterated
// computation separated by fuzzy barriers with a given slack, following the
// accumulation model of the authors' earlier fuzzy-barrier analysis:
//
//	e_i(k) = max(e_i(k-1), R(k-1) − slack) + w_i(k)
//
// where e_i(k) is processor i's arrival at the enforce point of iteration
// k, R(k−1) the previous episode's release time, and w_i(k) its work time.
//
// With slack 0 every processor restarts from the previous release, so
// arrival times are iid each iteration and the previous arrival order
// carries no information (dynamic placement then cannot help — Fig. 8's
// slack-0 column). With large slack, lateness accumulates as a random walk
// and slow processors stay slow for many iterations (Fig. 5), which is what
// makes history-based placement work.
type Iterator struct {
	Slack float64
	W     loadmodel.Generator

	rng     *stats.RNG
	enforce []float64 // e_i of the previous iteration
	buf     []float64 // scratch for work times
	iter    int
	started bool
}

// NewIterator creates an iterator over episodes of load model w with the
// given fuzzy-barrier slack, drawing randomness from seed.
func NewIterator(w loadmodel.Generator, slack float64, seed uint64) *Iterator {
	if slack < 0 {
		panic("barriersim: negative slack")
	}
	return &Iterator{
		Slack:   slack,
		W:       w,
		rng:     stats.NewRNG(seed),
		enforce: make([]float64, w.P()),
		buf:     make([]float64, w.P()),
	}
}

// Next returns the arrival times of the next episode. The returned slice
// is owned by the iterator and overwritten by the following call; copy it
// to retain. After simulating the episode the caller must report the
// release time with Complete before calling Next again.
func (it *Iterator) Next() []float64 {
	if it.started {
		panic("barriersim: Next called before Complete")
	}
	it.started = true
	it.W.Times(it.iter, it.rng, it.buf)
	for i := range it.enforce {
		it.enforce[i] += it.buf[i]
	}
	it.iter++
	return it.enforce
}

// Complete feeds back the episode's release time R(k), which caps how far
// any processor may lag into the next iteration. release must be at least
// the latest arrival.
func (it *Iterator) Complete(release float64) {
	if !it.started {
		panic("barriersim: Complete without Next")
	}
	it.started = false
	floor := release - it.Slack
	for i, e := range it.enforce {
		if e < floor {
			it.enforce[i] = floor
		}
	}
}

func (it *Iterator) String() string {
	return fmt.Sprintf("slack=%g over %v", it.Slack, it.W)
}
