package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values in 100 draws", same)
	}
}

func TestRNGZeroSeedNonDegenerate(t *testing.T) {
	r := NewRNG(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero outputs", zeros)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	if m := Mean(xs); math.Abs(m-0.5) > 0.005 {
		t.Errorf("uniform mean = %v, want ~0.5", m)
	}
	if sd := StdDev(xs); math.Abs(sd-1/math.Sqrt(12)) > 0.005 {
		t.Errorf("uniform sd = %v, want ~%v", sd, 1/math.Sqrt(12))
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) bucket %d count %d outside [9000, 11000]", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	if m := Mean(xs); math.Abs(m) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", m)
	}
	if sd := StdDev(xs); math.Abs(sd-1) > 0.01 {
		t.Errorf("normal sd = %v, want ~1", sd)
	}
	// Empirical CDF at a few points should match Φ.
	for _, x := range []float64{-1.5, 0, 1.5} {
		cnt := 0
		for _, v := range xs {
			if v <= x {
				cnt++
			}
		}
		got := float64(cnt) / n
		want := NormalCDF(x)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical CDF(%v) = %v, want ~%v", x, got, want)
		}
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := NewRNG(17)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.ExpFloat64()
	}
	if m := Mean(xs); math.Abs(m-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeedResetsGaussCache(t *testing.T) {
	r := NewRNG(29)
	_ = r.NormFloat64() // populate cache
	r.Seed(29)
	a := r.NormFloat64()
	r2 := NewRNG(29)
	b := r2.NormFloat64()
	if a != b {
		t.Fatalf("Seed did not reset cached gaussian: %v != %v", a, b)
	}
}
