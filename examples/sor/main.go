// SOR example: the paper's §7 workload on real goroutines.
//
// A 2-D relaxation grid is partitioned along the x-dimension across
// workers; a fuzzy (phased) barrier separates iterations. Each worker
// relaxes its stripe, calls Arrive, performs stripe-local bookkeeping in
// the barrier's slack region, and only then blocks in Await — converting
// load imbalance into overlap instead of idle time, exactly the fuzzy-
// barrier usage the paper assumes for dynamic placement.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"softbarrier"
	"softbarrier/internal/sor"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run solves the grid in parallel and sequentially, and reports to stdout
// once the two agree.
func run(stdout io.Writer) error {
	const (
		workers = 7
		dxEach  = 12
		dy      = 64
		iters   = 120
	)
	nx := workers*dxEach + 2

	// Hot left boundary: heat diffuses into the grid.
	build := func() *sor.Grid {
		g := sor.NewGrid(nx, dy+2)
		for x := 0; x < nx; x++ {
			g.SetBoth(x, 0, 1)
		}
		return g
	}

	// Reference solution.
	ref := build()
	refBuf := ref.SolveSeq(iters)

	// Parallel solve with a phased MCS tree barrier.
	b := softbarrier.NewMCSTree(workers, 4)
	g := build()
	stripes := sor.Stripes(nx-2, workers)
	done := make(chan float64, workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			src := 0
			localMax := 0.0
			for k := 0; k < iters; k++ {
				g.RelaxRows(src, stripes[id][0], stripes[id][1])
				b.Arrive(id)
				// Slack region: stripe-local reduction that needs no other
				// stripe's data — runs while stragglers finish relaxing.
				for x := stripes[id][0]; x < stripes[id][1]; x++ {
					if v := g.At(1-src, x, 1); v > localMax {
						localMax = v
					}
				}
				b.Await(id)
				src = 1 - src
			}
			done <- localMax
		}(id)
	}
	globalMax := 0.0
	for i := 0; i < workers; i++ {
		if v := <-done; v > globalMax {
			globalMax = v
		}
	}

	buf := iters % 2
	if g.Checksum(buf) != ref.Checksum(refBuf) {
		return errors.New("parallel SOR diverged from sequential reference")
	}
	fmt.Fprintf(stdout, "SOR %dx%d, %d iterations on %d workers with a fuzzy MCS tree barrier\n", nx, dy+2, iters, workers)
	fmt.Fprintf(stdout, "result matches the sequential solver (checksum %.6g)\n", g.Checksum(buf))
	fmt.Fprintf(stdout, "max first-column temperature (computed in the slack region): %.4f\n", globalMax)
	fmt.Fprintf(stdout, "residual after %d iterations: %.3g\n", iters, g.Residual(buf))
	return nil
}
