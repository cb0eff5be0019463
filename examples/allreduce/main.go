// AllReduce: a convergence loop where the termination test itself rides
// the barrier.
//
// Eight workers jointly estimate π by integrating 4/(1+x²) over [0,1]:
// each round every worker refines its own slice of the integral, then the
// cohort folds the per-worker deltas through the barrier's AllReduce.
// Everyone receives the same global delta bit-for-bit (sum-f64 folds in
// ascending worker id), so all workers agree on the round the loop stops
// — no coordinator, no extra synchronization phase. This is the pattern
// internal/sor.SolveSORParUntil uses for its residual test, in miniature.
//
// The example also shows Broadcast: worker 0 publishes the round count it
// observed and everyone adopts it, demonstrating that the collective
// modes mix freely on one barrier (one call shape per episode).
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"softbarrier"
)

const (
	workers = 8
	eps     = 1e-12 // stop when a refinement round moves π by less than this
	maxRnd  = 40
)

// f is the integrand: ∫₀¹ 4/(1+x²) dx = π.
func f(x float64) float64 { return 4 / (1 + x*x) }

// slice integrates worker id's subinterval with n midpoint samples.
func slice(id, n int) float64 {
	lo, hi := float64(id)/workers, float64(id+1)/workers
	h := (hi - lo) / float64(n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += f(lo + (float64(i)+0.5)*h)
	}
	return sum * h
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run estimates π on the barrier and reports to stdout the round every
// worker stopped on.
func run(stdout io.Writer) error {
	op := softbarrier.OpSumFloat64()
	b := softbarrier.NewCombiningTree(workers, 4, softbarrier.WithCollective(op))

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		rounds = make(map[int]int) // worker id -> round it stopped on
		pi     float64
		fail   error
	)
	wg.Add(workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			defer wg.Done()
			var cell [8]byte
			prev, n := 0.0, 2
			for round := 1; ; round++ {
				// Refine the local slice and contribute it; the release
				// wave returns the whole integral.
				binary.BigEndian.PutUint64(cell[:], math.Float64bits(slice(id, n)))
				if err := b.AllReduce(id, cell[:], cell[:]); err != nil {
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				}
				est := math.Float64frombits(binary.BigEndian.Uint64(cell[:]))
				// Every worker computed the identical est, so this branch
				// is taken by all of them on the same round.
				if math.Abs(est-prev) < eps || round == maxRnd {
					// One more payload episode: worker 0 broadcasts the
					// round it stopped on and everyone adopts it, showing
					// Broadcast mixing with AllReduce on the same barrier.
					binary.BigEndian.PutUint64(cell[:], uint64(round))
					if err := b.Broadcast(id, 0, cell[:]); err != nil {
						mu.Lock()
						fail = err
						mu.Unlock()
						return
					}
					mu.Lock()
					rounds[id] = int(binary.BigEndian.Uint64(cell[:]))
					pi = est
					mu.Unlock()
					return
				}
				prev, n = est, n*2
			}
		}(id)
	}
	wg.Wait()

	if fail != nil {
		return fail
	}
	round := rounds[0]
	for id, r := range rounds {
		if r != round {
			return fmt.Errorf("worker %d stopped on round %d, worker 0 on %d", id, r, round)
		}
	}
	fmt.Fprintf(stdout, "%d workers converged together on round %d (deterministic AllReduce => unanimous stop)\n",
		workers, round)
	fmt.Fprintf(stdout, "π ≈ %.15f (off by %.2g)\n", pi, math.Abs(pi-math.Pi))
	return nil
}
