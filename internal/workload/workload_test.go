package workload

import (
	"math"
	"testing"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
)

func TestIIDMoments(t *testing.T) {
	w := loadmodel.IID{N: 1000, Dist: stats.Normal{Mu: 5, Sigma: 2}}
	r := stats.NewRNG(1)
	dst := make([]float64, w.P())
	var all []float64
	for k := 0; k < 100; k++ {
		w.Times(k, r, dst)
		all = append(all, dst...)
	}
	if m := stats.Mean(all); math.Abs(m-5) > 0.05 {
		t.Errorf("mean %v, want ~5", m)
	}
	if sd := stats.StdDev(all); math.Abs(sd-2) > 0.05 {
		t.Errorf("sd %v, want ~2", sd)
	}
}

func TestSystemicOffsetsPersist(t *testing.T) {
	p := 64
	off := loadmodel.LinearOffsets(p, 10)
	w := loadmodel.StaticSkew{Base: loadmodel.IID{N: p, Dist: stats.Normal{Sigma: 0.01}}, Offsets: off}
	r := stats.NewRNG(2)
	dst := make([]float64, p)
	// With tiny noise, the slowest processor must be the one with the
	// largest offset on every iteration.
	for k := 0; k < 20; k++ {
		w.Times(k, r, dst)
		argmax := 0
		for i, v := range dst {
			if v > dst[argmax] {
				argmax = i
			}
		}
		if argmax != p-1 {
			t.Fatalf("iteration %d: slowest proc %d, want %d", k, argmax, p-1)
		}
	}
}

func TestLinearOffsets(t *testing.T) {
	off := loadmodel.LinearOffsets(5, 4)
	want := []float64{-2, -1, 0, 1, 2}
	for i := range want {
		if math.Abs(off[i]-want[i]) > 1e-12 {
			t.Fatalf("offsets %v, want %v", off, want)
		}
	}
	if one := loadmodel.LinearOffsets(1, 4); one[0] != 0 {
		t.Fatal("single processor offset should be 0")
	}
}

func TestEvolvingAutocorrelation(t *testing.T) {
	p := 256
	w := &loadmodel.Drift{N: p, Dist: stats.Normal{Sigma: 0.1}, Rho: 0.95, InnovSigma: 1}
	r := stats.NewRNG(3)
	prev := make([]float64, p)
	cur := make([]float64, p)
	// Warm up so biases reach stationarity.
	for k := 0; k < 100; k++ {
		w.Times(k, r, cur)
	}
	copy(prev, cur)
	w.Times(100, r, cur)
	if rho := stats.Spearman(prev, cur); rho < 0.7 {
		t.Errorf("evolving workload lag-1 rank correlation %v, want > 0.7", rho)
	}
}

func TestEvolvingZeroRhoIsIID(t *testing.T) {
	p := 512
	w := &loadmodel.Drift{N: p, Dist: stats.Normal{Sigma: 1}, Rho: 0, InnovSigma: 0}
	r := stats.NewRNG(4)
	a, b := make([]float64, p), make([]float64, p)
	w.Times(0, r, a)
	w.Times(1, r, b)
	if rho := stats.Spearman(a, b); math.Abs(rho) > 0.15 {
		t.Errorf("rho=0 workload correlated across iterations: %v", rho)
	}
}

func TestSampleArrivals(t *testing.T) {
	r := stats.NewRNG(5)
	xs := loadmodel.SampleArrivals(10000, stats.Normal{Sigma: 3}, r)
	if len(xs) != 10000 {
		t.Fatalf("got %d arrivals", len(xs))
	}
	if sd := stats.StdDev(xs); math.Abs(sd-3) > 0.1 {
		t.Errorf("arrival sd %v, want ~3", sd)
	}
}

func TestIteratorSlackZeroDecorrelates(t *testing.T) {
	p := 512
	it := NewIterator(loadmodel.IID{N: p, Dist: stats.Normal{Mu: 1, Sigma: 0.1}}, 0, 6)
	prev := make([]float64, p)
	var rhoSum float64
	const iters = 30
	for k := 0; k < iters; k++ {
		arr := it.Next()
		if k > 0 {
			rhoSum += stats.Spearman(prev, arr)
		}
		copy(prev, arr)
		it.Complete(stats.Max(arr)) // perfect barrier: release at last arrival
	}
	if avg := rhoSum / (iters - 1); math.Abs(avg) > 0.15 {
		t.Errorf("slack-0 lag-1 correlation %v, want ~0", avg)
	}
}

func TestIteratorLargeSlackPersists(t *testing.T) {
	p := 512
	it := NewIterator(loadmodel.IID{N: p, Dist: stats.Normal{Mu: 1, Sigma: 0.1}}, 1e9, 7)
	prev := make([]float64, p)
	var rhoSum float64
	const iters = 30
	for k := 0; k < iters; k++ {
		arr := it.Next()
		if k > 0 {
			rhoSum += stats.Spearman(prev, arr)
		}
		copy(prev, arr)
		it.Complete(stats.Max(arr))
	}
	if avg := rhoSum / (iters - 1); avg < 0.8 {
		t.Errorf("large-slack lag-1 correlation %v, want > 0.8", avg)
	}
}

func TestIteratorSlackZeroArrivalsRestartFromRelease(t *testing.T) {
	p := 8
	it := NewIterator(loadmodel.IID{N: p, Dist: stats.Degenerate{V: 2}}, 0, 8)
	arr := append([]float64(nil), it.Next()...)
	for _, a := range arr {
		if a != 2 {
			t.Fatalf("first arrivals %v, want all 2", arr)
		}
	}
	it.Complete(5) // release with extra synchronization delay
	arr2 := it.Next()
	for _, a := range arr2 {
		if a != 7 {
			t.Fatalf("second arrivals %v, want all 7 (release 5 + work 2)", arr2)
		}
	}
}

func TestIteratorProtocolViolations(t *testing.T) {
	it := NewIterator(loadmodel.IID{N: 2, Dist: stats.Degenerate{V: 1}}, 0, 9)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Complete before Next did not panic")
			}
		}()
		it.Complete(1)
	}()
	it.Next()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Next did not panic")
			}
		}()
		it.Next()
	}()
}

func TestIteratorNegativeSlackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative slack did not panic")
		}
	}()
	NewIterator(loadmodel.IID{N: 1, Dist: stats.Degenerate{V: 1}}, -1, 0)
}

func TestIteratorIterationCounter(t *testing.T) {
	it := NewIterator(loadmodel.IID{N: 2, Dist: stats.Degenerate{V: 1}}, 0, 10)
	if it.Iteration() != 0 {
		t.Fatal("initial iteration != 0")
	}
	arr := it.Next()
	it.Complete(stats.Max(arr))
	if it.Iteration() != 1 {
		t.Fatal("iteration not advanced")
	}
}

func TestWorkloadStrings(t *testing.T) {
	ws := []loadmodel.Generator{
		loadmodel.IID{N: 2, Dist: stats.Normal{}},
		loadmodel.StaticSkew{Base: loadmodel.IID{N: 2, Dist: stats.Normal{}}, Offsets: []float64{0, 0}},
		&loadmodel.Drift{N: 2, Dist: stats.Normal{}},
	}
	for _, w := range ws {
		if w.String() == "" {
			t.Errorf("%T empty string", w)
		}
	}
	it := NewIterator(ws[0], 1, 0)
	if it.String() == "" {
		t.Error("iterator empty string")
	}
}
