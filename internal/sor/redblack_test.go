package sor

import (
	"math"
	"testing"
)

// hotBoundaryGrid returns a grid with unit Dirichlet boundary and zero
// interior: a standard convergence benchmark (solution ≡ 1).
func hotBoundaryGrid(n int) *Grid {
	g := NewGrid(n, n)
	for i := 0; i < n; i++ {
		g.SetBoth(i, 0, 1)
		g.SetBoth(i, n-1, 1)
		g.SetBoth(0, i, 1)
		g.SetBoth(n-1, i, 1)
	}
	return g
}

func TestOmegaOpt(t *testing.T) {
	// Known value: for a large square grid ω* → 2; for tiny grids it is
	// modestly above 1 and inside (1, 2).
	for _, n := range []int{4, 16, 64} {
		w := OmegaOpt(n, n)
		if w <= 1 || w >= 2 {
			t.Errorf("ω*(%d) = %v outside (1, 2)", n, w)
		}
	}
	if OmegaOpt(16, 16) <= OmegaOpt(4, 4) {
		t.Error("ω* should grow with grid size")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for empty interior")
		}
	}()
	OmegaOpt(0, 5)
}

func TestSORFixedPointPreserved(t *testing.T) {
	// A harmonic function is a fixed point of SOR for any ω.
	g := NewGrid(10, 12)
	g.Fill(func(x, y int) float64 { return float64(2*x - 3*y) })
	g.SolveSORSeq(1.5, 5)
	for x := 0; x < g.NX; x++ {
		for y := 0; y < g.NY; y++ {
			if got := g.At(0, x, y); got != float64(2*x-3*y) {
				t.Fatalf("(%d,%d) = %v, want %v", x, y, got, float64(2*x-3*y))
			}
		}
	}
}

func TestSORConvergesToBoundary(t *testing.T) {
	g := hotBoundaryGrid(12)
	g.SolveSORSeq(OmegaOpt(10, 10), 200)
	for x := 1; x < 11; x++ {
		for y := 1; y < 11; y++ {
			if v := g.At(0, x, y); math.Abs(v-1) > 1e-8 {
				t.Fatalf("(%d,%d) = %v, not converged", x, y, v)
			}
		}
	}
}

func TestSORBeatsGaussSeidelBeatsJacobi(t *testing.T) {
	// Sweeps to reach the same residual: over-relaxed SOR < Gauss-Seidel
	// (ω=1); and Gauss-Seidel < Jacobi (counted via SolveSeq sweeps).
	const n, eps = 20, 1e-6
	sorSweeps := hotBoundaryGrid(n).SweepsToResidual(OmegaOpt(n-2, n-2), eps, 10000)
	gsSweeps := hotBoundaryGrid(n).SweepsToResidual(1.0, eps, 10000)
	jacobi := hotBoundaryGrid(n)
	jacobiSweeps := 0
	for ; jacobiSweeps < 10000; jacobiSweeps++ {
		if jacobi.Residual(jacobiSweeps%2) <= eps {
			break
		}
		jacobi.Relax(jacobiSweeps % 2)
	}
	if !(sorSweeps < gsSweeps && gsSweeps < jacobiSweeps) {
		t.Fatalf("sweep counts not ordered: SOR %d, GS %d, Jacobi %d", sorSweeps, gsSweeps, jacobiSweeps)
	}
	// The classic asymptotic: optimal SOR is dramatically faster.
	if sorSweeps*3 > gsSweeps {
		t.Errorf("optimal SOR (%d) should be ≫ faster than Gauss-Seidel (%d)", sorSweeps, gsSweeps)
	}
}

func TestSORParallelMatchesSequential(t *testing.T) {
	mk := func() *Grid {
		g := NewGrid(26, 15)
		g.Fill(func(x, y int) float64 { return float64((x*7 + y*3) % 5) })
		return g
	}
	ref := mk()
	ref.SolveSORSeq(1.7, 30)
	for _, p := range []int{1, 2, 3, 8, 24} {
		g := mk()
		g.SolveSORPar(p, 1.7, 30, NewWaitGroupBarrier(p))
		for x := 0; x < g.NX; x++ {
			for y := 0; y < g.NY; y++ {
				if g.At(0, x, y) != ref.At(0, x, y) {
					t.Fatalf("p=%d: mismatch at (%d,%d)", p, x, y)
				}
			}
		}
	}
}

func TestSORPanicsOnBadOmega(t *testing.T) {
	g := NewGrid(5, 5)
	for _, w := range []float64{0, -1, 2, 2.5} {
		w := w
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ω=%v accepted", w)
				}
			}()
			g.SolveSORSeq(w, 1)
		}()
	}
}

func TestSweepsToResidualCaps(t *testing.T) {
	g := hotBoundaryGrid(16)
	if got := g.SweepsToResidual(1.0, 0, 7); got != 7 {
		t.Fatalf("cap not applied: %d", got)
	}
	// Already converged: zero sweeps.
	flat := NewGrid(5, 5)
	if got := flat.SweepsToResidual(1.0, 1e-12, 10); got != 0 {
		t.Fatalf("converged grid needed %d sweeps", got)
	}
}

// SweepsToResidual runs SOR sweeps until Residual(0) ≤ eps and returns the
// sweep count, capped at maxIters (returning maxIters if not converged).
func (g *Grid) SweepsToResidual(omega, eps float64, maxIters int) int {
	checkOmega(omega)
	for k := 0; k < maxIters; k++ {
		if g.Residual(0) <= eps {
			return k
		}
		g.relaxColorRows(0, 0, omega, 1, g.NX-1)
		g.relaxColorRows(0, 1, omega, 1, g.NX-1)
	}
	return maxIters
}
