package netbarrier

import (
	"testing"
	"time"

	"softbarrier"
)

// The alloc gates run on both transports: loopback TCP, where the inline
// release write is a raw write(2) through the connection's RawConn, and
// memnet, where it is an append under the pipe lock and the deadlines the
// frame path sets must not cost a timer.
var allocTransports = []struct {
	name  string
	start func(testing.TB, Options) (string, *Server)
}{
	{"tcp", startTCPServer},
	{"memnet", startServer},
}

// episodeAllocs measures the heap allocations of one steady-state episode
// of a two-member session, on each transport in turn, and hands each
// average to check. episode is one member's whole episode; the lockstep
// partner runs it in a loop until the session dies under it at the end of
// the test — it can never run ahead, its episode blocks until both
// members arrive. testing.AllocsPerRun counts process-wide mallocs, so
// the partner and the server's reader goroutines are all inside the
// measurement: any allocation anywhere on the steady-state path shows.
func episodeAllocs(t *testing.T, opt Options, episode func(*Client) error, check func(t *testing.T, avg float64)) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; alloc gate runs in the non-race matrix")
	}
	for _, tr := range allocTransports {
		t.Run(tr.name, func(t *testing.T) {
			addr, _ := tr.start(t, opt)
			const p = 2
			a := dialJoin(t, addr, "alloc", p, 0)
			defer a.Close()
			b := dialJoin(t, addr, "alloc", p, 1)
			defer b.Close()
			go func() {
				for episode(b) == nil {
				}
			}()
			// Warm up past the growth phase: scratch buffers (release parity
			// buffers, fan-out target slices, client frame buffers, memnet
			// pipes) reach their steady-state capacity within a few episodes.
			for i := 0; i < 32; i++ {
				if err := episode(a); err != nil {
					t.Fatalf("warmup episode %d: %v", i, err)
				}
			}
			check(t, testing.AllocsPerRun(100, func() {
				if err := episode(a); err != nil {
					t.Errorf("measured episode: %v", err)
				}
			}))
		})
	}
}

func plainEpisode(c *Client) error {
	_, err := c.Wait()
	return err
}

// TestSteadyStateZeroAllocs gates the zero-allocation frame path: after
// warmup, a whole barrier episode — client Arrive encode, client Await
// decode, and (the server being in-process) the server-side read, arrival,
// re-plan evaluation, release encode, and fan-out — must perform zero heap
// allocations. Default options: no watchdog, and the default
// every-episode replan cadence, so the barrier's release →
// OptimalDegree → analytic-model path is inside the measurement too.
func TestSteadyStateZeroAllocs(t *testing.T) {
	episodeAllocs(t, Options{}, plainEpisode, func(t *testing.T, avg float64) {
		if avg != 0 {
			t.Fatalf("steady-state episode allocated %.2f times/op, want 0", avg)
		}
	})
}

// TestCollectiveSteadyStateAllocs bounds the collective (AllReduce) episode
// path: the only per-episode allocation allowed is the result copy Await
// hands to the caller (the caller owns Release.Result, so one make per
// episode is the contract, not a regression).
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	op, ok := softbarrier.OpByName("sum-u64")
	if !ok {
		t.Fatal("sum-u64 op not registered")
	}
	contrib := make([]byte, op.Width) // read-only: both members contribute it
	allReduce := func(c *Client) error {
		_, err := c.AllReduce(contrib)
		return err
	}
	episodeAllocs(t, Options{Op: opPtr(op)}, allReduce, func(t *testing.T, avg float64) {
		// Two clients copy one result each per episode; everything else on
		// the frame path must be allocation-free.
		if avg > 2 {
			t.Fatalf("collective steady-state episode allocated %.2f times/op, want ≤ 2 (the callers' result copies)", avg)
		}
	})
}

// TestWatchdogSteadyStateAllocs exercises the frame path with the watchdog
// armed — the production configuration. Its ticker is off the frame path
// and allocates nothing per episode.
func TestWatchdogSteadyStateAllocs(t *testing.T) {
	episodeAllocs(t, Options{Watchdog: 30 * time.Second}, plainEpisode, func(t *testing.T, avg float64) {
		if avg != 0 {
			t.Fatalf("watchdog-armed steady-state episode allocated %.2f times/op, want 0", avg)
		}
	})
}
