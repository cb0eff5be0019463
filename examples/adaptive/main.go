// Adaptive degree example: the barrier re-derives its tree degree at run
// time as the load imbalance changes — the adaptation the paper's
// conclusion proposes.
//
// Phase 1 is balanced: workers arrive nearly simultaneously, and the
// barrier keeps a narrow (deep) tree, which minimizes contention delay.
// Phase 2 injects heavy imbalance: arrivals spread over ~2ms, far wider
// than the assumed counter update cost, and the barrier widens its tree —
// with enough spread a nearly flat tree minimizes the update delay of the
// straggler.
package main

import (
	"fmt"
	"sync"
	"time"

	"softbarrier"
)

func main() {
	const workers = 16
	// Assume a 100µs counter update cost so the example's millisecond
	// sleeps register as heavy imbalance.
	b := softbarrier.NewReconfigurable(workers, softbarrier.ReconfigConfig{ReplanEvery: 4, Tc: 100e-6})

	runPhase := func(name string, episodes int, imbalance func(id int) time.Duration) {
		for k := 0; k < episodes; k++ {
			var wg sync.WaitGroup
			wg.Add(workers)
			for id := 0; id < workers; id++ {
				go func(id int) {
					defer wg.Done()
					if d := imbalance(id); d > 0 {
						time.Sleep(d)
					}
					b.Wait(id)
				}(id)
			}
			wg.Wait()
		}
		fmt.Printf("%-22s degree=%-3d σ estimate=%v adaptations=%d\n",
			name, b.Degree(), time.Duration(b.Sigma()*float64(time.Second)).Round(time.Microsecond), b.Adaptations())
	}

	fmt.Printf("start: degree=%d (the classic simultaneous-arrival optimum)\n", b.Degree())
	runPhase("after balanced phase:", 12, func(int) time.Duration { return 0 })
	// Spread arrivals over ~4ms — far beyond the assumed 100µs counter
	// update cost, so the model's optimum is decisively a wide tree.
	runPhase("after imbalanced phase:", 20, func(id int) time.Duration {
		return time.Duration(id) * 250 * time.Microsecond
	})
	if b.Degree() <= 4 {
		panic("barrier failed to widen under imbalance")
	}
	fmt.Println("the barrier widened its tree once arrivals spread out, as §4 predicts")
	rs := b.ReconfigStats()
	fmt.Printf("reconfiguration: epoch %d after %d rebuilds (%d plans evaluated)\n",
		rs.LastPlan.Epoch, rs.Rebuilds, rs.Evals)
}
