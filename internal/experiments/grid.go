package experiments

import "softbarrier/internal/sweep"

// grid runs n independent simulations, point i being the grid's i-th cell,
// on the options' engine (nil runs the points sequentially) and returns
// the results in point order. Results are engine-independent: see
// internal/sweep for the determinism contract.
func grid[R any](o Options, n int, fn sweep.PointFunc[R]) []R {
	return sweep.Run(o.Engine, sweep.Spec{Points: n, BaseSeed: o.Seed}, fn)
}
