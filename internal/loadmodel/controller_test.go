package loadmodel

import "testing"

// TestControllerZeroAlloc: with no placement policy a Step allocates
// nothing after construction, off the cadence and on it, where the degree
// moves with the spread.
func TestControllerZeroAlloc(t *testing.T) {
	const p, every = 48, 4 // 48 plans on 64's model table, built by the first Replan
	c := NewController(every, 20e-6, 0, nil)
	cur := c.Replan(Plan{}, p)
	for _, seq := range []uint64{0, every - 1} {
		k, epochs := 0, 0
		step := func() {
			spread := 1e-7 // simultaneous arrival, then a spread that moves the degree
			if k > 50 {
				spread = 2e-3
			}
			var change Change
			change = c.Step(&cur, &Episode{Seq: seq, Spread: spread, Measured: true, Target: p})
			if change == NewEpoch {
				epochs++
			}
			k++
		}
		if avg := testing.AllocsPerRun(100, step); avg != 0 {
			t.Errorf("Step at episode %d (cadence %d) allocated %.2f times, want 0", seq, every, avg)
		}
		if onCadence := seq == every-1; onCadence != (epochs > 0) {
			t.Errorf("episode %d (cadence %d): %d new epochs", seq, every, epochs)
		}
	}
}
