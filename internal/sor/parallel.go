package sor

import "sync"

// Barrier is the synchronization contract the parallel solver needs: Wait
// blocks participant id until all participants of the episode have called
// Wait. Every barrier in the softbarrier root package satisfies it.
type Barrier interface {
	Wait(id int)
}

// SolvePar runs iters relaxation sweeps of g with p goroutines partitioned
// along the x-dimension, synchronized by barrier b after every sweep, and
// returns the index of the buffer holding the final values. The result is
// bitwise identical to SolveSeq(iters) because each element's update reads
// only the previous iteration's buffer.
func (g *Grid) SolvePar(p, iters int, b Barrier) int {
	stripes := Stripes(g.NX-2, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			src := 0
			for k := 0; k < iters; k++ {
				g.RelaxRows(src, stripes[id][0], stripes[id][1])
				b.Wait(id)
				src = 1 - src
			}
		}(id)
	}
	wg.Wait()
	return iters % 2
}
