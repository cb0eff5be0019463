package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if got := StdDev(xs); math.Abs(got-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("empty/singleton moments should be 0")
	}
}

func TestMax(t *testing.T) {
	if Max([]float64{3, -1, 7, 2}) != 7 {
		t.Fatal("Max wrong")
	}
}

func TestMaxPanicOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Percentile(xs, 50)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestRanksWithTies(t *testing.T) {
	ranks := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("Ranks = %v, want %v", ranks, want)
		}
	}
}

func TestSpearmanPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 30, 50, 70, 90}
	if got := Spearman(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman increasing = %v, want 1", got)
	}
	rev := []float64{90, 70, 50, 30, 10}
	if got := Spearman(xs, rev); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman decreasing = %v, want -1", got)
	}
}

func TestSpearmanUncorrelated(t *testing.T) {
	r := NewRNG(31)
	n := 10000
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	if got := Spearman(xs, ys); math.Abs(got) > 0.05 {
		t.Errorf("Spearman of independent samples = %v, want ~0", got)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Error("short sample should give 0")
	}
	if Spearman([]float64{1, 1, 1}, []float64{1, 2, 3}) != 0 {
		t.Error("zero-variance sample should give 0")
	}
}

func TestSpearmanPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	Spearman([]float64{1, 2}, []float64{1})
}

// Property: Spearman is bounded in [-1, 1] and invariant to monotone
// transformations of either argument.
func TestSpearmanProperties(t *testing.T) {
	r := NewRNG(37)
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed))
		n := 3 + rr.Intn(50)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rr.NormFloat64(), rr.NormFloat64()
		}
		rho := Spearman(xs, ys)
		if rho < -1-1e-12 || rho > 1+1e-12 {
			return false
		}
		// exp is strictly monotone, so ranks are unchanged.
		exps := make([]float64, n)
		for i, x := range xs {
			exps[i] = math.Exp(x)
		}
		return math.Abs(Spearman(exps, ys)-rho) < 1e-9
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
