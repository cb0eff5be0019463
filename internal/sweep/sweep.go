// Package sweep is a declarative parameter-grid engine for the simulation
// side of the study. A sweep is a list of points (one per cell of a
// parameter grid, e.g. p × degree × σ × tree kind × episodes); the engine
// fans the points out across a bounded worker pool and collects the
// results in spec order.
//
// Determinism is the hard requirement: every point draws its randomness
// from a seed derived solely from (base seed, point index) by a
// splitmix64-style hash (PointSeed), and results land in a pre-sized slice
// at their own index. A parallel run is therefore bit-identical to the
// sequential run regardless of worker count or goroutine scheduling.
//
// An optional progress callback reports points done / total with an ETA
// for long sweeps.
package sweep

import (
	"runtime"
	"sync"
	"time"
)

// Spec declares one sweep: points 0 … Points-1, in the order the results
// are wanted. A point is its index; the caller maps it to parameters.
type Spec struct {
	// Points is the number of points.
	Points int
	// BaseSeed is the sweep's base PRNG seed; each point receives
	// PointSeed(BaseSeed, index).
	BaseSeed uint64
}

// PointFunc simulates point i using the derived per-point seed. A point
// function may deliberately ignore the derived seed in favour of the
// spec's base seed when paired comparisons across points (common random
// numbers) are wanted.
type PointFunc[R any] func(i int, seed uint64) R

// Progress is a snapshot of a running sweep, delivered to the engine's
// Report callback after every completed point.
type Progress struct {
	// Done and Total count completed and declared points.
	Done, Total int
	// Elapsed is the time since the sweep started.
	Elapsed time.Duration
	// Remaining estimates the time to completion by extrapolating the
	// mean per-point time over the points still outstanding; it is zero
	// until at least one point has been computed.
	Remaining time.Duration
}

// Engine executes sweeps. The zero value runs points on all CPUs with no
// progress reporting; a nil *Engine runs points sequentially (the safe
// default for sweeps nested inside an already-parallel outer sweep).
type Engine struct {
	// Workers bounds the number of concurrently simulated points.
	// Values <= 0 select runtime.GOMAXPROCS(0).
	Workers int
	// Report, when non-nil, receives a Progress snapshot after every
	// completed point. It is called with the engine's internal lock held,
	// so it must not call back into the engine.
	Report func(Progress)
}

// PointSeed derives the PRNG seed of point index from the sweep's base
// seed with a splitmix64 finalizer, so that neighbouring indices (and
// neighbouring base seeds) yield decorrelated streams.
func PointSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes fn over every point of the spec on engine e and returns the
// results in spec order. The result slice is identical for every worker
// count (see the package comment). A panic in any point function is
// re-raised on the calling goroutine after the remaining workers drain.
func Run[R any](e *Engine, s Spec, fn PointFunc[R]) []R {
	workers := 1
	var report func(Progress)
	if e != nil {
		workers = e.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		report = e.Report
	}
	n := s.Points
	results := make([]R, n)
	if n == 0 {
		return results
	}
	if workers > n {
		workers = n
	}

	start := time.Now()
	var (
		mu       sync.Mutex
		done     int
		panicked any
	)
	runPoint := func(i int) {
		results[i] = fn(i, PointSeed(s.BaseSeed, i))
		mu.Lock()
		defer mu.Unlock()
		done++
		if report == nil {
			return
		}
		p := Progress{Done: done, Total: n, Elapsed: time.Since(start)}
		if done < n {
			p.Remaining = time.Duration(float64(p.Elapsed) / float64(done) * float64(n-done))
		}
		report(p)
	}

	if workers == 1 {
		for i := 0; i < n; i++ {
			runPoint(i)
		}
		return results
	}

	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
					// Drain so sibling workers exit promptly.
					for range idx {
					}
				}
			}()
			for i := range idx {
				runPoint(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return results
}
