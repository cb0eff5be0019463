package stats

import (
	"math"
	"sort"
	"testing"
)

func TestKSNormalAcceptsNormalSamples(t *testing.T) {
	r := NewRNG(41)
	const n = 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 3 + 2*r.NormFloat64()
	}
	d := KSNormal(xs, 3, 2)
	crit := KSCriticalValue(n, 0.01)
	if d > crit {
		t.Errorf("normal sample rejected: D=%v > crit=%v", d, crit)
	}
}

func TestKSNormalRejectsExponentialSamples(t *testing.T) {
	r := NewRNG(43)
	const n = 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	// Match the first two moments (mean 1, sd 1) — shape alone must fail.
	d := KSNormal(xs, 1, 1)
	crit := KSCriticalValue(n, 0.01)
	if d <= crit {
		t.Errorf("exponential sample accepted as normal: D=%v ≤ crit=%v", d, crit)
	}
}

func TestKSUniformSampler(t *testing.T) {
	r := NewRNG(47)
	const n = 5000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	d := KolmogorovSmirnov(xs, func(x float64) float64 {
		switch {
		case x < 0:
			return 0
		case x > 1:
			return 1
		default:
			return x
		}
	})
	if crit := KSCriticalValue(n, 0.01); d > crit {
		t.Errorf("uniform sample rejected: D=%v > crit=%v", d, crit)
	}
}

func TestKSExactSmallSample(t *testing.T) {
	// Sample {0.5} against U(0,1): F_n jumps 0→1 at 0.5, F(0.5)=0.5,
	// so D = 0.5.
	d := KolmogorovSmirnov([]float64{0.5}, func(x float64) float64 { return x })
	if math.Abs(d-0.5) > 1e-12 {
		t.Errorf("D = %v, want 0.5", d)
	}
}

func TestKSCriticalValueKnown(t *testing.T) {
	// The classic α=0.05 constant is 1.3581/√n.
	if got := KSCriticalValue(100, 0.05) * 10; math.Abs(got-1.3581) > 1e-3 {
		t.Errorf("c(0.05) = %v, want ≈1.3581", got)
	}
	// Monotone: stricter α → larger threshold.
	if KSCriticalValue(100, 0.01) <= KSCriticalValue(100, 0.05) {
		t.Error("critical value not monotone in α")
	}
}

func TestKSPanics(t *testing.T) {
	for _, f := range []func(){
		func() { KolmogorovSmirnov(nil, func(float64) float64 { return 0 }) },
		func() { KSNormal([]float64{1}, 0, 0) },
		func() { KSCriticalValue(0, 0.05) },
		func() { KSCriticalValue(10, 0) },
		func() { KSCriticalValue(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestKSDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	KolmogorovSmirnov(xs, NormalCDF)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("KS mutated its input")
	}
}

// KolmogorovSmirnov returns the one-sample Kolmogorov-Smirnov statistic
// D_n = sup_x |F_n(x) − F(x)| of the sample xs against the continuous
// distribution function cdf. The barrier study uses it to verify the
// normality assumptions imported from [13] and [15] on its own generators,
// and tests use it to validate the PRNG's samplers against their target
// distributions. It panics on an empty sample.
func KolmogorovSmirnov(xs []float64, cdf func(float64) float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("stats: KS statistic of empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	d := 0.0
	for i, x := range sorted {
		f := cdf(x)
		// Compare against the empirical CDF just before and at x.
		lo := f - float64(i)/float64(n)
		hi := float64(i+1)/float64(n) - f
		if lo > d {
			d = lo
		}
		if hi > d {
			d = hi
		}
	}
	return d
}

// KSNormal returns the KS statistic of xs against N(mu, sigma²).
func KSNormal(xs []float64, mu, sigma float64) float64 {
	if sigma <= 0 {
		panic("stats: KSNormal needs positive sigma")
	}
	return KolmogorovSmirnov(xs, func(x float64) float64 {
		return NormalCDF((x - mu) / sigma)
	})
}

// KSCriticalValue returns the asymptotic critical value of the one-sample
// KS statistic at significance level alpha (two-sided): c(α)/√n with
// c(α) = √(−ln(α/2)/2). For α = 0.05 this is the familiar 1.358/√n. It
// panics for alpha outside (0, 1) or n < 1.
func KSCriticalValue(n int, alpha float64) float64 {
	if n < 1 {
		panic("stats: KS critical value needs n ≥ 1")
	}
	if alpha <= 0 || alpha >= 1 {
		panic("stats: KS significance level must be in (0, 1)")
	}
	return math.Sqrt(-math.Log(alpha/2)/2) / math.Sqrt(float64(n))
}
