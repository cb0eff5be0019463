package shardbarrier

import (
	"testing"

	"softbarrier"
	"softbarrier/internal/netbarrier"
)

// fleetEpisodeAllocs measures the heap allocations of one steady-state
// episode of a session spanning a two-leaf memnet fleet, one member on
// each leaf. episode is one member's whole episode; the partner runs it in
// a loop until the session dies under it at the end of the test, in
// lockstep, since an episode blocks until both members arrive.
// testing.AllocsPerRun counts process-wide mallocs, so both leaves'
// sessions and root links, the root session and every reader goroutine
// are inside the measurement.
func fleetEpisodeAllocs(t *testing.T, opt netbarrier.Options, episode func(*netbarrier.Client) error) float64 {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc gate runs in the non-race matrix")
	}
	f := startFleet(t, FleetOptions{Leaves: 2, Net: opt})
	addrs := f.LeafAddrs()
	a := dialJoin(t, addrs[0], "alloc", 1, 0)
	defer a.Close()
	b := dialJoin(t, addrs[1], "alloc", 1, 0)
	defer b.Close()
	go func() {
		for episode(b) == nil {
		}
	}()
	// Warm up past the growth phase: the release parity buffers, fan-out
	// scratch, frame buffers and memnet pipes reach their steady-state
	// capacity within a few episodes.
	for i := 0; i < 32; i++ {
		if err := episode(a); err != nil {
			t.Fatalf("warmup episode %d: %v", i, err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if err := episode(a); err != nil {
			t.Errorf("measured episode: %v", err)
		}
	})
}

// TestFleetSteadyStateAllocs gates a leaf's steady state as
// netbarrier's TestSteadyStateZeroAllocs gates a standalone server's: a
// plain episode across the fleet allocates nothing, and a collective one
// allocates only the result copy each client's Await hands its caller
// (Release.Result is the caller's).
func TestFleetSteadyStateAllocs(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		avg := fleetEpisodeAllocs(t, netbarrier.Options{}, func(c *netbarrier.Client) error {
			_, err := c.Wait()
			return err
		})
		if avg != 0 {
			t.Fatalf("steady-state fleet episode allocated %.2f times/op, want 0", avg)
		}
	})
	t.Run("sum-u64", func(t *testing.T) {
		op := softbarrier.OpSumUint64()
		contrib := make([]byte, op.Width) // read-only: both members contribute it
		avg := fleetEpisodeAllocs(t, netbarrier.Options{Op: &op}, func(c *netbarrier.Client) error {
			_, err := c.AllReduce(contrib)
			return err
		})
		if avg > 2 {
			t.Fatalf("collective fleet episode allocated %.2f times/op, want ≤ 2 (the clients' result copies)", avg)
		}
	})
}
