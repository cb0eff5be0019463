package softbarrier_test

import (
	"fmt"
	"sync"
	"time"

	"softbarrier"
)

// The most common usage: a fixed pool of workers running supersteps
// separated by a combining-tree barrier.
func ExampleNewCombiningTree() {
	const workers = 4
	b := softbarrier.NewCombiningTree(workers, 4)

	var wg sync.WaitGroup
	wg.Add(workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			defer wg.Done()
			for step := 0; step < 3; step++ {
				// ... work for this superstep ...
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
	fmt.Println("3 supersteps completed")
	// Output: 3 supersteps completed
}

// OptimalDegree applies the paper's analytic model: under simultaneous
// arrival (σ = 0) the classic answer is degree 4; once arrivals spread far
// beyond the counter update time, a flat tree wins.
func ExampleOptimalDegree() {
	tc := 20e-6 // 20µs counter updates, the paper's measured value
	fmt.Println(softbarrier.OptimalDegree(64, 0, tc))
	fmt.Println(softbarrier.OptimalDegree(64, 100*tc, tc))
	// Output:
	// 4
	// 64
}

// A fuzzy barrier: independent work placed between Arrive and Await runs
// in the barrier's slack, hiding load imbalance.
func ExamplePhasedBarrier() {
	const workers = 3
	var b softbarrier.PhasedBarrier = softbarrier.NewMCSTree(workers, 2)

	var wg sync.WaitGroup
	wg.Add(workers)
	for id := 0; id < workers; id++ {
		go func(id int) {
			defer wg.Done()
			// ... work that others depend on ...
			b.Arrive(id)
			// ... independent work, overlapped with stragglers ...
			b.Await(id)
			// ... work that depends on everyone's arrival ...
		}(id)
	}
	wg.Wait()
	fmt.Println("fuzzy episode completed")
	// Output: fuzzy episode completed
}

// Dynamic placement: a consistently slow worker migrates toward the root
// and ends up synchronizing through a single counter.
func ExampleDynamicBarrier() {
	const workers, slow = 8, 2
	b := softbarrier.NewDynamic(workers, 2)

	for episode := 0; episode < 10; episode++ {
		var wg sync.WaitGroup
		wg.Add(workers)
		for id := 0; id < workers; id++ {
			go func(id int) {
				defer wg.Done()
				if id == slow {
					time.Sleep(time.Millisecond) // systemic imbalance
				}
				b.Wait(id)
			}(id)
		}
		wg.Wait()
	}
	fmt.Println("slow worker depth:", b.DepthOf(slow))
	// Output: slow worker depth: 1
}

// Group removes the BSP boilerplate: one call runs all workers and
// supersteps over any barrier.
func ExampleGroup_Run() {
	g := softbarrier.NewGroup(softbarrier.NewCombiningTree(4, 2))
	var sum [3]int32
	var mu sync.Mutex
	g.Run(3, func(id, step int) {
		mu.Lock()
		sum[step]++
		mu.Unlock()
	})
	fmt.Println(sum[0], sum[1], sum[2])
	// Output: 4 4 4
}

// The dissemination barrier needs no tuning and no central state: a
// drop-in baseline.
func ExampleDisseminationBarrier() {
	b := softbarrier.NewDissemination(5)
	var wg sync.WaitGroup
	wg.Add(5)
	for id := 0; id < 5; id++ {
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
	fmt.Println("rounds per episode:", b.Rounds())
	// Output: rounds per episode: 3
}
