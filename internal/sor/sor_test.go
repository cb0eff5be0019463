package sor

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"softbarrier/internal/ksr"
	"softbarrier/internal/stats"
)

func TestLinearFunctionIsFixedPoint(t *testing.T) {
	// f(x, y) = x is harmonic: the 4-neighbor average leaves it unchanged,
	// so relaxation must be an exact no-op.
	g := NewGrid(12, 9)
	g.Fill(func(x, y int) float64 { return float64(x) })
	g.Relax(0)
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			if got := g.At(1, x, y); got != float64(x) {
				t.Fatalf("(%d,%d) = %v after relaxation, want %v", x, y, got, float64(x))
			}
		}
	}
	if r := g.Residual(0); r != 0 {
		t.Fatalf("residual of fixed point = %v", r)
	}
}

func TestRelaxationConvergesToBoundary(t *testing.T) {
	// Dirichlet boundary of 1 everywhere: the interior must converge to 1.
	g := NewGrid(10, 10)
	for x := 0; x < 10; x++ {
		g.SetBoth(x, 0, 1)
		g.SetBoth(x, 9, 1)
	}
	for y := 0; y < 10; y++ {
		g.SetBoth(0, y, 1)
		g.SetBoth(9, y, 1)
	}
	b := g.SolveSeq(2000)
	for x := 1; x < 9; x++ {
		for y := 1; y < 9; y++ {
			if v := g.At(b, x, y); math.Abs(v-1) > 1e-6 {
				t.Fatalf("(%d,%d) = %v, not converged to 1", x, y, v)
			}
		}
	}
}

func TestResidualDecreasesMonotonically(t *testing.T) {
	g := NewGrid(20, 20)
	g.SetBoth(0, 10, 100) // single hot boundary point
	prev := math.Inf(1)
	src := 0
	for k := 0; k < 50; k++ {
		g.Relax(src)
		src = 1 - src
		r := g.Residual(src)
		if r > prev*(1+1e-12) {
			t.Fatalf("residual rose at iteration %d: %v > %v", k, r, prev)
		}
		prev = r
	}
}

func TestGridPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewGrid(2, 5) },
		func() { Stripes(4, 5) },
		func() { Stripes(0, 1) },
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

func TestStripesCoverExactly(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%200) + 1
		p := int(pRaw)%n + 1
		s := Stripes(n, p)
		if len(s) != p || s[0][0] != 1 || s[p-1][1] != n+1 {
			return false
		}
		for i := 0; i < p; i++ {
			size := s[i][1] - s[i][0]
			if size < 1 {
				return false
			}
			if i > 0 {
				if s[i][0] != s[i-1][1] {
					return false
				}
				if d := size - (s[i-1][1] - s[i-1][0]); d > 0 {
					return false // earlier stripes get the remainder
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	mk := func() *Grid {
		g := NewGrid(30, 17)
		g.Fill(func(x, y int) float64 { return float64((x*31 + y*17) % 7) })
		return g
	}
	ref := mk()
	refBuf := ref.SolveSeq(25)

	for _, p := range []int{1, 2, 3, 7, 28} {
		g := mk()
		buf := g.SolvePar(p, 25, NewWaitGroupBarrier(p))
		if buf != refBuf {
			t.Fatalf("p=%d: buffer %d, want %d", p, buf, refBuf)
		}
		for x := 0; x < g.NX; x++ {
			for y := 0; y < g.NY; y++ {
				if g.At(buf, x, y) != ref.At(refBuf, x, y) {
					t.Fatalf("p=%d: mismatch at (%d,%d)", p, x, y)
				}
			}
		}
	}
}

func TestWaitGroupBarrierReleasesAll(t *testing.T) {
	const n = 8
	b := NewWaitGroupBarrier(n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(id int) {
			for k := 0; k < 100; k++ {
				b.Wait(id)
			}
			done <- id
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

func TestTimingModelCalibration(t *testing.T) {
	// §7: 56 processors, d_x = 60, d_y = 210 ⇒ execution time ≈ 9.5 ms,
	// σ ≈ 110 µs.
	tm := NewTimingModel(ksr.New56(), 60, 210)
	if m := tm.MeanTime(); math.Abs(m-9.5e-3) > 0.5e-3 {
		t.Errorf("mean iteration time %v, want ≈ 9.5ms", m)
	}
	if s := tm.PredictedSigma(); math.Abs(s-110e-6) > 15e-6 {
		t.Errorf("predicted σ %v, want ≈ 110µs", s)
	}
	if s := tm.MeasuredSigma(300, 1); math.Abs(s-110e-6) > 20e-6 {
		t.Errorf("measured σ %v, want ≈ 110µs", s)
	}
}

func TestTimingSigmaGrowsWithDY(t *testing.T) {
	// Fig. 12: increasing d_y increases the number of communications and
	// with it the standard deviation of execution times.
	m := ksr.New56()
	prev := 0.0
	for _, dy := range []int{30, 60, 120, 210, 480, 960} {
		s := NewTimingModel(m, 60, dy).MeasuredSigma(200, 2)
		if s <= prev {
			t.Fatalf("σ(dy=%d) = %v did not grow past %v", dy, s, prev)
		}
		prev = s
	}
}

func TestTimingCommEvents(t *testing.T) {
	tm := NewTimingModel(ksr.New56(), 60, 210)
	// Paper: 4·⌈d_y/16⌉ communication events per processor.
	if got := tm.CommEvents(); got != 4*14 {
		t.Errorf("comm events %d, want 56", got)
	}
}

func TestTimingMomentsMatchAnalytic(t *testing.T) {
	tm := NewTimingModel(ksr.New56(), 60, 210)
	r := stats.NewRNG(3)
	dst := make([]float64, tm.P())
	var all []float64
	for k := 0; k < 200; k++ {
		tm.Times(k, r, dst)
		all = append(all, dst...)
	}
	if m := stats.Mean(all); math.Abs(m-tm.MeanTime()) > tm.MeanTime()*0.01 {
		t.Errorf("sample mean %v vs analytic %v", m, tm.MeanTime())
	}
	if s := stats.StdDev(all); math.Abs(s-tm.PredictedSigma()) > tm.PredictedSigma()*0.1 {
		t.Errorf("sample σ %v vs analytic %v", s, tm.PredictedSigma())
	}
}

func TestTimingModelWorkloadInterface(t *testing.T) {
	tm := NewTimingModel(ksr.New56(), 60, 210)
	if tm.P() != 56 {
		t.Fatalf("P = %d", tm.P())
	}
	if tm.String() == "" {
		t.Fatal("empty description")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid stripe did not panic")
		}
	}()
	NewTimingModel(ksr.New56(), 0, 10)
}

// WaitGroupBarrier is a trivial reference Barrier built from stdlib
// primitives, used to cross-check the library barriers in tests.
type WaitGroupBarrier struct {
	n    int
	mu   sync.Mutex
	cond *sync.Cond
	cnt  int
	gen  uint64
}

// NewWaitGroupBarrier returns a reference barrier for n participants.
func NewWaitGroupBarrier(n int) *WaitGroupBarrier {
	b := &WaitGroupBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n participants have arrived.
func (b *WaitGroupBarrier) Wait(int) {
	b.mu.Lock()
	gen := b.gen
	b.cnt++
	if b.cnt == b.n {
		b.cnt = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// MeanTime returns the expected per-iteration execution time of a
// processor.
func (t *TimingModel) MeanTime() float64 {
	compute := float64(t.DX*t.DY) * t.M.ComputePerElement
	return compute + float64(t.CommEvents())*(t.M.RingAccess+DefaultJitter)
}

// PredictedSigma returns the analytic standard deviation of a processor's
// iteration time, √(events)·jitter.
func (t *TimingModel) PredictedSigma() float64 {
	return DefaultJitter * math.Sqrt(float64(t.CommEvents()))
}
