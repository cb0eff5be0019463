package stats

type Distribution interface {
	Sample(r *RNG) float64
	Mean() float64
	String() string
}

func (n Normal) StdDev() float64 { return n.Sigma }

func (n Normal) Quantile(p float64) float64 { return n.Mu }

type Shifted struct{ Offset float64 }
