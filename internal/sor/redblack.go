package sor

import (
	"fmt"
	"math"
	"sync"
)

// This file implements true successive over-relaxation with red/black
// ordering and a relaxation factor ω — the classically convergent variant
// of the §7 workload (the paper's measured program is the two-array
// Jacobi-style sweep in grid.go; red/black SOR is the extension a
// production solver would ship). Points are colored by (x+y) parity; all
// red points update in place from black neighbors, a barrier separates the
// half-sweeps, then black points update from the new red values. Within a
// half-sweep every update reads only the other color, so the parallel
// result is bitwise identical to the sequential one.

// OmegaOpt returns the asymptotically optimal over-relaxation factor for
// the 5-point Laplacian on an n×m interior grid:
// ω* = 2 / (1 + √(1−ρ²)), ρ = (cos(π/(n+1)) + cos(π/(m+1)))/2.
func OmegaOpt(n, m int) float64 {
	if n < 1 || m < 1 {
		panic("sor: OmegaOpt needs a non-empty interior")
	}
	rho := (math.Cos(math.Pi/float64(n+1)) + math.Cos(math.Pi/float64(m+1))) / 2
	return 2 / (1 + math.Sqrt(1-rho*rho))
}

// relaxColorRows updates the points of the given color (0 or 1, by (x+y)
// parity) in interior rows [x0, x1) of buffer b, in place, with relaxation
// factor omega.
func (g *Grid) relaxColorRows(b int, color int, omega float64, x0, x1 int) {
	if x0 < 1 {
		x0 = 1
	}
	if x1 > g.NX-1 {
		x1 = g.NX - 1
	}
	u := g.buf[b]
	ny := g.NY
	for x := x0; x < x1; x++ {
		row := x * ny
		y0 := 1 + (x+1+color)%2
		for y := y0; y < ny-1; y += 2 {
			i := row + y
			gs := 0.25 * (u[i-ny] + u[i+ny] + u[i-1] + u[i+1])
			u[i] += omega * (gs - u[i])
		}
	}
}

// SolveSORSeq runs iters red/black SOR sweeps in place on buffer 0 with
// relaxation factor omega (ω = 1 is Gauss-Seidel; OmegaOpt accelerates
// convergence). It panics for ω outside (0, 2), the convergence range.
func (g *Grid) SolveSORSeq(omega float64, iters int) {
	checkOmega(omega)
	for k := 0; k < iters; k++ {
		g.relaxColorRows(0, 0, omega, 1, g.NX-1)
		g.relaxColorRows(0, 1, omega, 1, g.NX-1)
	}
}

// SolveSORPar runs iters red/black SOR sweeps with p goroutines
// partitioned along the x-dimension, synchronized by barrier b after each
// half-sweep (two barrier episodes per iteration). The result is bitwise
// identical to SolveSORSeq.
func (g *Grid) SolveSORPar(p int, omega float64, iters int, b Barrier) {
	checkOmega(omega)
	stripes := Stripes(g.NX-2, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				g.relaxColorRows(0, 0, omega, stripes[id][0], stripes[id][1])
				b.Wait(id)
				g.relaxColorRows(0, 1, omega, stripes[id][0], stripes[id][1])
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
}

func checkOmega(omega float64) {
	if !(omega > 0 && omega < 2) {
		panic(fmt.Sprintf("sor: relaxation factor %v outside (0, 2)", omega))
	}
}
