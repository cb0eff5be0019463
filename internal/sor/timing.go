package sor

import (
	"fmt"

	"softbarrier/internal/ksr"
	"softbarrier/internal/stats"
)

// DefaultJitter is the default per-communication contention jitter mean,
// calibrated so that the d_y = 210 configuration of the paper's §7 setup
// reproduces its measured per-iteration standard deviation of ≈110µs:
// σ = jitter·√(4·⌈210/16⌉) ⇒ jitter ≈ 14.7µs.
const DefaultJitter = 14.7e-6

// TimingModel is a loadmodel.Generator producing the per-iteration execution
// times of the SOR program on a KSR machine model: a deterministic compute
// term proportional to the stripe size plus one randomly delayed remote
// transfer per communicated cache sub-line.
//
// Following the paper's own accounting, every processor performs
// 4·⌈d_y/16⌉ communication events per iteration (two neighbor rows in each
// of the two arrays, at sub-line granularity). Each transfer costs the
// intra-ring remote latency plus an exponentially distributed contention
// delay; the exponential's long right tail reflects the asymmetric
// distributions the paper observes under fuzzy barriers (§8). Ring:1
// crossings are not surcharged — the paper's uniform event count implies
// the measured variance was contention-dominated, and a per-processor
// ring:1 surcharge would add a systemic spread the measurements do not
// show.
type TimingModel struct {
	// M is the machine model.
	M ksr.Machine
	// DX is the number of grid rows per processor (60 in §7).
	DX int
	// DY is the grid's y-dimension, which sets the communication volume.
	DY int
}

// NewTimingModel builds a timing model, validating its parameters.
func NewTimingModel(m ksr.Machine, dx, dy int) *TimingModel {
	if dx < 1 || dy < 1 {
		panic(fmt.Sprintf("sor: invalid stripe %dx%d", dx, dy))
	}
	return &TimingModel{M: m, DX: dx, DY: dy}
}

// P returns the machine's processor count.
func (t *TimingModel) P() int { return t.M.P() }

// CommEvents returns the number of sub-line transfers per processor per
// iteration, the paper's 4·⌈d_y/16⌉.
func (t *TimingModel) CommEvents() int { return 4 * ksr.SubLines(t.DY) }

// Times fills dst with one iteration of per-processor execution times.
func (t *TimingModel) Times(_ int, r *stats.RNG, dst []float64) {
	compute := float64(t.DX*t.DY) * t.M.ComputePerElement
	events := t.CommEvents()
	for i := 0; i < t.P(); i++ {
		w := compute
		for e := 0; e < events; e++ {
			w += t.M.RingAccess + DefaultJitter*r.ExpFloat64()
		}
		dst[i] = w
	}
}

func (t *TimingModel) String() string {
	return fmt.Sprintf("sor p=%d dx=%d dy=%d jitter=%g", t.P(), t.DX, t.DY, DefaultJitter)
}

// MeasuredSigma samples iters iterations and returns the mean
// within-iteration standard deviation of processor times, the quantity the
// paper's Fig. 12 reports as the "experimentally determined standard
// deviation".
func (t *TimingModel) MeasuredSigma(iters int, seed uint64) float64 {
	r := stats.NewRNG(seed)
	dst := make([]float64, t.P())
	sum := 0.0
	for k := 0; k < iters; k++ {
		t.Times(k, r, dst)
		sum += stats.StdDev(dst)
	}
	return sum / float64(iters)
}
