package softbarrier

import "softbarrier/internal/loadmodel"

type Profile struct{ P int }

type Recommendation struct{ Degree int }

func Recommend(pr Profile) Recommendation { return Recommendation{} }

type SigmaSource interface{ MeasuredSigma() (float64, uint64) }

func RecommendMeasured(pr Profile, src SigmaSource) Recommendation { return Recommend(pr) }

func Plan(pr Profile) Recommendation { return Recommend(pr) }

func ReduceOrder(lags []float64) []int { return loadmodel.Rank(lags) }

func (a *Aggregate) MeasuredSigma() (float64, uint64) { return 0, 0 }
