package stats

import "math"

// ExpectedMaxNormalAsymptotic returns the paper's Eq. 5 asymptotic
// approximation for the expected maximum of p iid standard normal variates:
//
//	E[M_p] ≈ √(2 ln p) − (ln ln p + ln 4π) / (2 √(2 ln p))
//
// It is accurate to a few percent for p ≥ 16 and is what the analytic model
// uses for the arrival time of the last processor. For p < 2 it returns 0.
func ExpectedMaxNormalAsymptotic(p int) float64 {
	if p < 2 {
		return 0
	}
	lp := math.Log(float64(p))
	s := math.Sqrt(2 * lp)
	return s - (math.Log(lp)+math.Log(4*math.Pi))/(2*s)
}
