package softbarrier

import (
	"fmt"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/model"
)

// Profile describes a workload's synchronization-relevant properties, in
// the terms of the paper's evaluation: how many participants, how spread
// their arrivals are, what a counter update costs, how much fuzzy slack
// the program exposes, and whether the imbalance is systemic (the same
// participants are consistently late) rather than freshly random each
// iteration.
type Profile struct {
	// P is the number of participants.
	P int
	// Sigma is the standard deviation of arrival times, seconds.
	Sigma float64
	// Tc is the counter update cost, seconds; 0 selects the paper's 20µs.
	Tc float64
	// Slack is the fuzzy-barrier slack the program can expose, seconds
	// (0 for a plain barrier).
	Slack float64
	// Systemic reports whether the same participants tend to be late
	// every iteration.
	Systemic bool
	// Rings optionally constrains placement to ring-local moves (one
	// entry per ring); nil means no ring structure.
	Rings []int
}

// Recommendation is the planner's output: a barrier configuration with the
// reasoning that produced it.
type Recommendation struct {
	// Degree is the combining-tree degree from the analytic model.
	Degree int
	// Dynamic selects the dynamic-placement barrier.
	Dynamic bool
	// Fuzzy indicates the program should drive the barrier through
	// Arrive/Await to exploit its slack.
	Fuzzy bool
	// Rationale explains each choice for logs and humans.
	Rationale string
}

// Recommend is the planner's decision procedure, explained for logs and
// humans: the analytic model (§3–4) picks the tree degree from (p, σ, t_c)
// (OptimalDegree, which allocates nothing and is what a running
// ReconfigurableBarrier re-plans with), and dynamic placement (§5) is
// enabled exactly when the arrival order is predictable — systemic
// imbalance, or slack comfortably exceeding the per-iteration spread (the
// Fig. 5/8/13 condition; below that threshold dynamic placement measured
// slower than static). It panics for P < 1 or negative quantities.
func Recommend(pr Profile) Recommendation {
	if pr.P < 1 {
		panic("softbarrier: profile needs at least one participant")
	}
	if pr.Sigma < 0 || pr.Tc < 0 || pr.Slack < 0 {
		panic("softbarrier: negative profile quantity")
	}
	tc := pr.Tc
	if tc == 0 {
		tc = model.DefaultTc
	}
	// The §7 measurements put the static/dynamic crossover near the point
	// where the slack covers a few arrival spreads; require 2σ.
	predictable := pr.Systemic || (pr.Slack > 0 && pr.Slack >= 2*pr.Sigma)
	rec := Recommendation{Degree: OptimalDegree(pr.P, pr.Sigma, tc), Dynamic: predictable && pr.P > 1}
	rationale := fmt.Sprintf("degree %d from the analytic model (p=%d, σ=%.3gs, t_c=%.3gs)",
		rec.Degree, pr.P, pr.Sigma, tc)
	if rec.Dynamic {
		if pr.Systemic {
			rationale += "; dynamic placement on (systemic imbalance makes the late arrivals predictable)"
		} else {
			rationale += fmt.Sprintf("; dynamic placement on (slack %.3gs ≥ 2σ keeps slow participants slow across iterations)", pr.Slack)
		}
	} else {
		rationale += "; dynamic placement off (arrival order not predictable enough to beat static placement)"
	}
	if pr.Slack > 0 {
		rec.Fuzzy = true
		rationale += "; drive the barrier via Arrive/Await to spend the slack"
	}
	rec.Rationale = rationale
	return rec
}

// SigmaSource supplies a measured arrival-spread estimate.
// ReconfigurableBarrier and Aggregate implement it; any Observer that folds EpisodeStats.Spread
// into its own estimate can too. The episode count lets the planner tell a
// live estimate from an unseeded one.
type SigmaSource interface {
	// MeasuredSigma returns the σ estimate in seconds and the number of
	// episodes it is based on. episodes == 0 means "no data yet".
	MeasuredSigma() (sigma float64, episodes uint64)
}

// Measured returns a copy of the profile with Sigma replaced by src's live
// estimate, when src has observed at least one episode. This closes the
// paper's loop: run with WithObserver (or a ReconfigurableBarrier), feed the
// measured spread back, and re-plan with real numbers instead of guesses.
func (pr Profile) Measured(src SigmaSource) Profile {
	if src != nil {
		if sigma, episodes := src.MeasuredSigma(); episodes > 0 {
			pr.Sigma = sigma
		}
	}
	return pr
}

// RecommendMeasured is Recommend over the measured profile: the assumed
// Sigma is overridden by src's estimate when one exists.
func RecommendMeasured(pr Profile, src SigmaSource) Recommendation {
	return Recommend(pr.Measured(src))
}

// Build constructs the recommended barrier for the profile.
func (r Recommendation) Build(pr Profile) Barrier {
	if r.Dynamic {
		if len(pr.Rings) > 0 {
			return NewDynamicRing(pr.Rings, r.Degree)
		}
		return NewDynamic(pr.P, r.Degree)
	}
	return NewCombiningTree(pr.P, r.Degree)
}

// Plan is Recommend followed by Build, for callers that do not need to
// inspect the recommendation.
func Plan(pr Profile) (Barrier, Recommendation) {
	rec := Recommend(pr)
	return rec.Build(pr), rec
}

// ReduceOrder converts per-participant lag estimates (seconds behind the
// episode's earliest arrival, e.g. an EWMA over observed episodes) into a
// placement order for a combining tree: participant ids sorted laggiest
// first. Feeding the order to topology.Tree.PlaceByDepth puts the
// consistently late participants on the shallow slots adjacent to the
// root — when a straggler finally arrives it climbs one or two counters
// instead of a full leaf-to-root path, so its contribution folds last and
// the release fires sooner — while the early arrivals sit at the leaves,
// pre-reducing the bulk of the payload during the spread the stragglers
// create. This is the static, measurement-driven counterpart of the §5
// dynamic-placement barrier: same placement rule, applied offline from a
// lag profile instead of online per episode. The sort is stable, so equal
// lags keep their id order and the policy degenerates to the identity
// order for uniform lag.
//
// ReduceOrder is loadmodel.Rank: the live placement policies (see
// WithPlacementPolicy) rank the same way.
func ReduceOrder(lags []float64) []int {
	return loadmodel.Rank(lags)
}
