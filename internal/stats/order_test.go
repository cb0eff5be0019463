package stats

import (
	"math"
	"testing"
)

func TestExpectedMaxExactSmallN(t *testing.T) {
	// Closed forms: E[max of 2] = 1/√π, E[max of 3] = 3/(2√π).
	cases := []struct {
		n    int
		want float64
	}{
		{1, 0},
		{2, 1 / math.Sqrt(math.Pi)},
		{3, 3 / (2 * math.Sqrt(math.Pi))},
	}
	for _, c := range cases {
		if got := ExpectedMaxNormalExact(c.n); math.Abs(got-c.want) > 1e-8 {
			t.Errorf("ExpectedMaxNormalExact(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestExpectedMaxExactMatchesMonteCarlo(t *testing.T) {
	r := NewRNG(99)
	for _, n := range []int{4, 16, 64} {
		const trials = 20000
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			m := math.Inf(-1)
			for i := 0; i < n; i++ {
				if v := r.NormFloat64(); v > m {
					m = v
				}
			}
			sum += m
		}
		mc := sum / trials
		exact := ExpectedMaxNormalExact(n)
		if math.Abs(mc-exact) > 0.02 {
			t.Errorf("n=%d: exact %v vs Monte Carlo %v", n, exact, mc)
		}
	}
}

func TestAsymptoticApproachesExact(t *testing.T) {
	// The Eq. 5 asymptote should be within a few percent of the exact value
	// for the system sizes the paper studies.
	for _, n := range []int{64, 256, 1024, 4096} {
		exact := ExpectedMaxNormalExact(n)
		asym := ExpectedMaxNormalAsymptotic(n)
		rel := math.Abs(asym-exact) / exact
		if rel > 0.06 {
			t.Errorf("n=%d: asymptote %v vs exact %v (rel err %.3f)", n, asym, exact, rel)
		}
	}
}

func TestExpectedMaxMonotoneInN(t *testing.T) {
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096} {
		v := ExpectedMaxNormalExact(n)
		if v <= prev {
			t.Fatalf("expected max not increasing at n=%d: %v <= %v", n, v, prev)
		}
		prev = v
	}
}

func TestOrderStatisticSymmetry(t *testing.T) {
	// E[X_(k)] = −E[X_(n+1−k)] by symmetry of the normal.
	for _, n := range []int{5, 10, 31} {
		for k := 1; k <= n; k++ {
			a := ExpectedOrderStatisticNormal(n, k)
			b := ExpectedOrderStatisticNormal(n, n+1-k)
			if math.Abs(a+b) > 1e-7 {
				t.Errorf("n=%d k=%d: %v and %v not symmetric", n, k, a, b)
			}
		}
	}
}

func TestOrderStatisticMedianOfOddSampleIsZero(t *testing.T) {
	for _, n := range []int{3, 7, 15} {
		if got := ExpectedOrderStatisticNormal(n, (n+1)/2); math.Abs(got) > 1e-8 {
			t.Errorf("median order statistic of n=%d = %v, want 0", n, got)
		}
	}
}

func TestOrderStatisticMonotoneInK(t *testing.T) {
	n := 20
	prev := math.Inf(-1)
	for k := 1; k <= n; k++ {
		v := ExpectedOrderStatisticNormal(n, k)
		if v <= prev {
			t.Fatalf("order statistics not increasing at k=%d: %v <= %v", k, v, prev)
		}
		prev = v
	}
}

func TestOrderStatisticPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{0, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("k=%d did not panic", k)
				}
			}()
			ExpectedOrderStatisticNormal(5, k)
		}()
	}
}

func TestAsymptoticSmallN(t *testing.T) {
	if got := ExpectedMaxNormalAsymptotic(1); got != 0 {
		t.Errorf("asymptote for n=1 = %v, want 0", got)
	}
	if got := ExpectedMaxNormalAsymptotic(0); got != 0 {
		t.Errorf("asymptote for n=0 = %v, want 0", got)
	}
}

func TestAdaptiveSimpsonAgreesWithGaussLegendre(t *testing.T) {
	f := func(x float64) float64 { return NormalPDF(x) }
	gl := gaussLegendre(f, -8, 8, 32)
	as := AdaptiveSimpson(f, -8, 8, 1e-12)
	if math.Abs(gl-1) > 1e-10 {
		t.Errorf("Gauss-Legendre ∫φ = %v, want 1", gl)
	}
	if math.Abs(as-1) > 1e-9 {
		t.Errorf("adaptive Simpson ∫φ = %v, want 1", as)
	}
}

// ExpectedMaxNormalExact returns the expected maximum of n iid standard
// normal variates computed by numerical integration of
//
//	E[M_n] = ∫ x · n · φ(x) · Φ(x)^(n−1) dx.
//
// It is exact to the precision of the quadrature (~1e-10) and serves as the
// reference implementation the asymptote is validated against.
func ExpectedMaxNormalExact(n int) float64 {
	if n <= 1 {
		return 0
	}
	return ExpectedOrderStatisticNormal(n, n)
}

// ExpectedOrderStatisticNormal returns the expectation of the k-th order
// statistic (1-based, k = n is the maximum) of n iid standard normal
// variates, by numerically integrating its density
//
//	f_(k)(x) = n·C(n−1, k−1)·Φ(x)^(k−1)·(1−Φ(x))^(n−k)·φ(x).
//
// Binomial factors are computed in log space so the routine is stable for
// large n (the study uses n up to 4096). It panics if k is out of range.
func ExpectedOrderStatisticNormal(n, k int) float64 {
	if k < 1 || k > n {
		panic("stats: order statistic index out of range")
	}
	logC := logBinomial(n-1, k-1) + math.Log(float64(n))
	integrand := func(x float64) float64 {
		cdf := NormalCDF(x)
		if cdf <= 0 || cdf >= 1 {
			// Far tails: the log-space density underflows anyway.
			if (cdf <= 0 && k > 1) || (cdf >= 1 && k < n) {
				return 0
			}
		}
		logF := logC + float64(k-1)*safeLog(cdf) + float64(n-k)*safeLog(1-cdf) - 0.5*x*x - 0.5*math.Log(2*math.Pi)
		if logF < -745 { // below exp underflow
			return 0
		}
		return x * math.Exp(logF)
	}
	// The density of any normal order statistic is negligible outside
	// ±(√(2 ln n) + 8).
	bound := math.Sqrt(2*math.Log(float64(n)+1)) + 8
	return gaussLegendre(integrand, -bound, bound, 64)
}

func safeLog(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return math.Log(x)
}

// logBinomial returns ln C(n, k) using log-gamma.
func logBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}

// gaussLegendre integrates f over [a, b] with composite 16-point
// Gauss-Legendre quadrature over panels sub-intervals.
func gaussLegendre(f func(float64) float64, a, b float64, panels int) float64 {
	if panels < 1 {
		panels = 1
	}
	h := (b - a) / float64(panels)
	sum := 0.0
	for p := 0; p < panels; p++ {
		lo := a + float64(p)*h
		mid := lo + h/2
		half := h / 2
		for i, x := range gl16Nodes {
			sum += gl16Weights[i] * (f(mid+half*x) + f(mid-half*x)) * half
		}
	}
	return sum
}

// 16-point Gauss-Legendre nodes and weights on [-1, 1] (positive half;
// the quadrature mirrors them).
var gl16Nodes = [8]float64{
	0.0950125098376374, 0.2816035507792589,
	0.4580167776572274, 0.6178762444026438,
	0.7554044083550030, 0.8656312023878318,
	0.9445750230732326, 0.9894009349916499,
}

var gl16Weights = [8]float64{
	0.1894506104550685, 0.1826034150449236,
	0.1691565193950025, 0.1495959888165767,
	0.1246289712555339, 0.0951585116824928,
	0.0622535239386479, 0.0271524594117541,
}

// AdaptiveSimpson integrates f over [a, b] with adaptive Simpson's rule to
// absolute tolerance tol. It is used by tests as an independent check of the
// Gauss-Legendre results.
func AdaptiveSimpson(f func(float64) float64, a, b, tol float64) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	whole := (b - a) / 6 * (fa + 4*fc + fb)
	return adaptiveSimpsonAux(f, a, b, tol, whole, fa, fb, fc, 50)
}

func adaptiveSimpsonAux(f func(float64) float64, a, b, tol, whole, fa, fb, fc float64, depth int) float64 {
	c := (a + b) / 2
	d, e := (a+c)/2, (c+b)/2
	fd, fe := f(d), f(e)
	left := (c - a) / 6 * (fa + 4*fd + fc)
	right := (b - c) / 6 * (fc + 4*fe + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpsonAux(f, a, c, tol/2, left, fa, fc, fd, depth-1) +
		adaptiveSimpsonAux(f, c, b, tol/2, right, fc, fb, fe, depth-1)
}
