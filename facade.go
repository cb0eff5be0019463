package softbarrier

import (
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
)

// OptimalDegree returns the combining-tree degree the paper's analytic
// model (§3–4) recommends for p participants whose arrival times have
// standard deviation sigma (seconds), given a counter update cost tc
// (seconds; 0 selects the paper's 20µs). The result is clamped to [2, p].
//
// The model is defined on full trees, so p is rounded up to the next power
// of two for the estimation; the paper shows the delay curve is flat
// enough around the optimum for this to cost only a few percent.
func OptimalDegree(p int, sigma, tc float64) int {
	if p < 2 {
		return 2
	}
	pUp := 2
	for pUp < p {
		pUp *= 2
	}
	d := model.EstimateOptimalDegree(pUp, sigma, tc).Degree
	if d > p {
		d = p
	}
	if d < 2 {
		d = 2
	}
	return d
}

// EstimateSyncDelay returns the analytic model's synchronization-delay
// estimate (Algorithm 1) for p participants, tree degree d, arrival
// standard deviation sigma and counter update cost tc. p must be a full
// power of d.
func EstimateSyncDelay(p, d int, sigma, tc float64) (float64, error) {
	return model.EstimateDelay(model.Params{P: p, Degree: d, Sigma: sigma, Tc: tc})
}

// ExpectedLastArrival returns the expected arrival time of the last of p
// participants whose arrival times are N(0, sigma²), using the paper's
// Eq. 5 order-statistics asymptote.
func ExpectedLastArrival(p int, sigma float64) float64 {
	return sigma * stats.ExpectedMaxNormalAsymptotic(p)
}
