package stats

import "fmt"

// Distribution is a one-dimensional sampling distribution used for
// processor execution and arrival times.
type Distribution interface {
	// Sample draws one variate using the supplied generator.
	Sample(r *RNG) float64
	// String describes the distribution for logs and table captions.
	String() string
}

// Normal is the N(Mu, Sigma²) distribution. Sigma must be non-negative;
// Sigma == 0 degenerates to a point mass at Mu, which the barrier study uses
// for the classic simultaneous-arrival assumption.
type Normal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a normal variate.
func (n Normal) Sample(r *RNG) float64 {
	if n.Sigma == 0 {
		return n.Mu
	}
	return n.Mu + n.Sigma*r.NormFloat64()
}

func (n Normal) String() string { return fmt.Sprintf("Normal(µ=%g, σ=%g)", n.Mu, n.Sigma) }

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate on [Lo, Hi).
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

func (u Uniform) String() string { return fmt.Sprintf("Uniform[%g, %g)", u.Lo, u.Hi) }

// Exponential is the exponential distribution with the given Rate,
// optionally shifted by Shift. Its long right tail models the asymmetric
// arrival distributions observed under fuzzy barriers (§8 of the paper).
type Exponential struct {
	Rate  float64
	Shift float64
}

// Sample draws an exponential variate.
func (e Exponential) Sample(r *RNG) float64 { return e.Shift + r.ExpFloat64()/e.Rate }

func (e Exponential) String() string {
	return fmt.Sprintf("Exponential(rate=%g, shift=%g)", e.Rate, e.Shift)
}

// Degenerate is the point mass at V: every processor arrives at exactly V.
type Degenerate struct {
	V float64
}

// Sample returns V.
func (d Degenerate) Sample(*RNG) float64 { return d.V }

func (d Degenerate) String() string { return fmt.Sprintf("Degenerate(%g)", d.V) }
