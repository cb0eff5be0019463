package barriersim

import (
	"math"
	"testing"

	"softbarrier/internal/loadmodel"
	"softbarrier/internal/stats"
)

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

// Iteration returns the index of the episode the next call to Next will
// produce.
func (it *Iterator) Iteration() int { return it.iter }
