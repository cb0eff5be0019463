package softbarrier

import "softbarrier/internal/model"

// OptimalDegree returns the combining-tree degree the paper's analytic
// model (§3–4) recommends for p participants whose arrival times have
// standard deviation sigma (seconds), given a counter update cost tc
// (seconds; 0 selects the paper's 20µs). The result is clamped to [2, p].
//
// The model is defined on full trees, so p is rounded up to the next power
// of two for the estimation; the paper shows the delay curve is flat
// enough around the optimum for this to cost only a few percent.
func OptimalDegree(p int, sigma, tc float64) int { return model.OptimalDegree(p, sigma, tc) }
