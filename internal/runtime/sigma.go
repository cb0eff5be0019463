package runtime

import (
	"math"
	"sync/atomic"
)

// DefaultSigmaWeight is the weight of the newest episode's spread in the
// EWMA σ estimate.
const DefaultSigmaWeight = 0.2

// SigmaEstimator maintains an exponentially weighted moving average of
// per-episode arrival spreads: the measured σ that run-time adaptation and
// the planner's measured profiles consume. All methods are safe for
// concurrent use: Observe folds its sample in with a CAS loop, so
// concurrent observers (several barriers sharing one estimator, or an
// estimator fed from outside the release path) cannot lose updates.
type SigmaEstimator struct {
	bits atomic.Uint64 // math.Float64bits of the current estimate
	n    atomic.Uint64
}

// unseededBits marks an estimator that has not observed anything yet: a
// quiet-NaN payload no arithmetic on real spreads can produce. Keeping the
// "unseeded" state inside the same word as the estimate lets Observe
// decide seed-vs-fold atomically with its CAS, so two racing first
// observations cannot overwrite each other.
const unseededBits = 0x7ff8_0000_0000_0001

// Init marks the estimator unseeded. The zero estimator must be
// initialized before use.
func (e *SigmaEstimator) Init() { e.bits.Store(unseededBits) }

// Observe folds one episode's spread (seconds) into the estimate with
// weight DefaultSigmaWeight. The first observation seeds the EWMA
// directly. Concurrent observers are
// safe: the whole load-fold-store is retried on interference.
func (e *SigmaEstimator) Observe(spread float64) {
	for {
		old := e.bits.Load()
		cur := spread
		if old != unseededBits {
			cur = (1-DefaultSigmaWeight)*math.Float64frombits(old) + DefaultSigmaWeight*spread
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(cur)) {
			e.n.Add(1)
			return
		}
	}
}

// Sigma returns the current σ estimate in seconds (0 before any episode).
func (e *SigmaEstimator) Sigma() float64 {
	b := e.bits.Load()
	if b == unseededBits {
		return 0
	}
	return math.Float64frombits(b)
}

// Episodes returns how many spreads have been observed.
func (e *SigmaEstimator) Episodes() uint64 { return e.n.Load() }
