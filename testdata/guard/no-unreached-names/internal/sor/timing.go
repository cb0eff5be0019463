package sor

const DefaultJitter = 14.7e-6

type TimingModel struct{ Jitter float64 }

func (t *TimingModel) jitter() float64 { return DefaultJitter }

// A sampled σ stays: it is no feedback interface.
func (t *TimingModel) MeasuredSigma(iters int, seed uint64) float64 { return 0 }
