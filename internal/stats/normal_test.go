package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
		{-6, 9.865876450376946e-10},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-12*math.Max(1, math.Abs(c.want)) && math.Abs(got-c.want) > 1e-15 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalPDFKnownValues(t *testing.T) {
	if got, want := NormalPDF(0), 1/math.Sqrt(2*math.Pi); math.Abs(got-want) > 1e-15 {
		t.Errorf("NormalPDF(0) = %v, want %v", got, want)
	}
	if got, want := NormalPDF(1), math.Exp(-0.5)/math.Sqrt(2*math.Pi); math.Abs(got-want) > 1e-15 {
		t.Errorf("NormalPDF(1) = %v, want %v", got, want)
	}
}

func TestNormalQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959963984540054},
		{0.025, -1.959963984540054},
		{0.8413447460685429, 1},
		{0.99, 2.3263478740408408},
		{0.999, 3.090232306167813},
		{1e-10, -6.361340902404056},
	}
	for _, c := range cases {
		if got := NormalQuantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(NormalQuantile(p)) {
			t.Errorf("NormalQuantile(%v) should be NaN", p)
		}
	}
}

// Property: Φ(Φ⁻¹(p)) == p to high accuracy across (0, 1).
func TestNormalQuantileRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1))
		if p == 0 {
			p = 0.37
		}
		x := NormalQuantile(p)
		back := NormalCDF(x)
		return math.Abs(back-p) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the quantile function is symmetric, Φ⁻¹(1−p) = −Φ⁻¹(p).
// Computing 1−p in float64 itself loses up to one ulp of 1, which the steep
// tail amplifies, so extreme tails get a proportionally looser tolerance.
func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{1e-9, 1e-6, 0.01, 0.1, 0.25, 0.49} {
		a, b := NormalQuantile(p), NormalQuantile(1-p)
		tol := 1e-10 + 2e-16/NormalPDF(a)
		if math.Abs(a+b) > tol {
			t.Errorf("asymmetry at p=%v: %v vs %v (tol %v)", p, a, b, tol)
		}
	}
}

// Property: the quantile function is strictly increasing.
func TestNormalQuantileMonotone(t *testing.T) {
	prev := math.Inf(-1)
	for p := 0.001; p < 1; p += 0.001 {
		q := NormalQuantile(p)
		if q <= prev {
			t.Fatalf("quantile not increasing at p=%v: %v <= %v", p, q, prev)
		}
		prev = q
	}
}

func TestNormalDistribution(t *testing.T) {
	d := Normal{Mu: 10, Sigma: 2}
	r := NewRNG(5)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	if m := Mean(xs); math.Abs(m-10) > 0.05 {
		t.Errorf("sample mean %v, want ~10", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 0.05 {
		t.Errorf("sample sd %v, want ~2", sd)
	}
}

func TestNormalSigmaZeroDegenerates(t *testing.T) {
	d := Normal{Mu: 3, Sigma: 0}
	r := NewRNG(1)
	for i := 0; i < 10; i++ {
		if v := d.Sample(r); v != 3 {
			t.Fatalf("σ=0 sample = %v, want 3", v)
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	d := Uniform{Lo: -1, Hi: 3}
	r := NewRNG(2)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = d.Sample(r)
		if xs[i] < -1 || xs[i] >= 3 {
			t.Fatalf("Uniform sample %v out of range", xs[i])
		}
	}
	if m := Mean(xs); math.Abs(m-1) > 0.05 {
		t.Errorf("Uniform sample mean %v, want ~1", m)
	}
}

func TestExponentialDistribution(t *testing.T) {
	d := Exponential{Rate: 2, Shift: 1}
	r := NewRNG(4)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = d.Sample(r)
		if xs[i] < 1 {
			t.Fatalf("Exponential sample %v below shift", xs[i])
		}
	}
	if m := Mean(xs); math.Abs(m-1.5) > 0.02 {
		t.Errorf("Exponential sample mean %v, want ~1.5", m)
	}
}

func TestDegenerateDistribution(t *testing.T) {
	if v := (Degenerate{V: 7}).Sample(nil); v != 7 {
		t.Fatalf("Degenerate sample = %v, want 7", v)
	}
}

func TestDistributionStrings(t *testing.T) {
	for _, d := range []Distribution{
		Normal{Mu: 1, Sigma: 2}, Uniform{Lo: 0, Hi: 1},
		Exponential{Rate: 1}, Degenerate{V: 0},
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}
