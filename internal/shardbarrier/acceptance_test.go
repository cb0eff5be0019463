package shardbarrier

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
)

// TestHierarchicalAcceptance is the tentpole acceptance run: 1 root +
// 4 leaf shards, 256 clients, 500 consecutive AllReduce episodes with an
// arrival-jitter phase in the middle that moves each leaf's measured σ
// enough for its planner to re-plan mid-run. Every episode's fold is
// ledger-verified bit-identical to the sequential fold (integer-valued
// f64 contributions make any grouping exact — see contribution). Run with
// -race to check the whole two-level stack; -short scales the run down.
func TestHierarchicalAcceptance(t *testing.T) {
	leaves, p, episodes := 4, 256, 500
	jitterLo, jitterHi := 150, 280
	if testing.Short() {
		leaves, p, episodes = 2, 32, 120
		jitterLo, jitterHi = 40, 80
	}
	op := softbarrier.OpSumFloat64()
	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net: netbarrier.Options{
			Watchdog:    60 * time.Second,
			ReplanEvery: 4,
			Op:          &op,
		},
	})
	addrs := f.LeafAddrs()

	type result struct {
		degrees []int // client-visible degree history (the leaf's re-plans)
		err     error
	}
	results := make([]result, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			leaf := leafFor(i, p, leaves)
			c, err := testDial(addrs[leaf])
			if err != nil {
				res.err = err
				return
			}
			if err := c.Join("acceptance", p/leaves); err != nil {
				res.err = err
				c.Close()
				return
			}
			defer c.Leave()
			rng := rand.New(rand.NewSource(int64(i)*7919 + 13))
			last := -1
			for ep := uint64(0); ep < uint64(episodes); ep++ {
				if ep >= uint64(jitterLo) && ep < uint64(jitterHi) {
					// The load-imbalance phase: arrivals spread over ~2ms,
					// inflating every leaf's local σ so the model answers
					// with a wider tree than in the synchronous phases.
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
				if err := c.ArriveReduce(f64bytes(contribution(i, ep))); err != nil {
					res.err = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				r, err := c.Await()
				if err != nil {
					res.err = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if r.Episode != ep {
					res.err = fmt.Errorf("episode %d released as %d", ep, r.Episode)
					return
				}
				// The ledger check: the fleet-wide fold must be the exact
				// (hence sequential-fold-identical) sum.
				if got, want := f64of(r.Result), expectedSum(p, ep); got != want {
					res.err = fmt.Errorf("episode %d: fleet fold %v, sequential fold %v", ep, got, want)
					return
				}
				if r.Degree != last {
					res.degrees = append(res.degrees, r.Degree)
					last = r.Degree
				}
			}
		}(i)
	}
	wg.Wait()

	for i := range results {
		if results[i].err != nil {
			t.Fatalf("client %d: %v", i, results[i].err)
		}
	}
	// Clients of the same leaf share a release stream, so they saw the
	// same degree history; the jitter phase must have re-planned at least
	// one leaf mid-run.
	replanned := false
	perLeaf := p / leaves
	for l := 0; l < leaves; l++ {
		base := results[l*perLeaf].degrees
		t.Logf("leaf %d degree history: %v", l, base)
		for i := l * perLeaf; i < (l+1)*perLeaf; i++ {
			if fmt.Sprint(results[i].degrees) != fmt.Sprint(base) {
				t.Fatalf("client %d saw degree history %v; leaf-mate saw %v", i, results[i].degrees, base)
			}
		}
		if len(base) > 1 {
			replanned = true
		}
	}
	if !replanned {
		t.Error("no leaf re-planned its tree during the jitter phase")
	}
}

// TestHierarchicalRaceSmoke is the CI race gate's hierarchical step: one
// root, two in-process leaves, 64 clients × 200 plain episodes. It is a
// smaller, collective-free cousin of the acceptance run, sized so -race
// finishes quickly while still driving the full leaf→root→leaf release
// path every episode.
func TestHierarchicalRaceSmoke(t *testing.T) {
	const leaves, p, episodes = 2, 64, 200
	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 60 * time.Second, ReplanEvery: 8},
	})
	addrs := f.LeafAddrs()

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialJoin(t, addrs[leafFor(i, p, leaves)], "smoke", p/leaves, -1)
			defer c.Leave()
			for ep := 0; ep < episodes; ep++ {
				r, err := c.Wait()
				if err != nil {
					errs[i] = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if r.Episode != uint64(ep) {
					errs[i] = fmt.Errorf("episode %d released as %d", ep, r.Episode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// BenchmarkHierarchical measures one full fleet episode — every client's
// Arrive combined at its leaf, one aggregated arrival per leaf at the
// root, the release fanned back down — over loopback TCP, at the
// topology points the flat BenchmarkNetBarrier covers with a single
// server, for the flat-vs-sharded episode latency comparison at equal
// client counts.
func BenchmarkHierarchical(b *testing.B) {
	for _, tc := range []struct{ leaves, clients int }{
		{2, 64}, {4, 64}, {4, 256},
	} {
		b.Run(fmt.Sprintf("%dleaves/%dclients", tc.leaves, tc.clients), func(b *testing.B) {
			b.ReportAllocs()
			f := startTCPFleet(b, FleetOptions{
				Leaves: tc.leaves,
				Net:    netbarrier.Options{Watchdog: 60 * time.Second},
			})
			addrs := f.LeafAddrs()
			clients := make([]*netbarrier.Client, tc.clients)
			for i := range clients {
				clients[i] = dialJoin(b, addrs[leafFor(i, tc.clients, tc.leaves)], "bench", tc.clients/tc.leaves, -1)
			}
			defer func() {
				for _, c := range clients {
					c.Leave()
				}
			}()

			var wg sync.WaitGroup
			errs := make([]error, tc.clients)
			b.ResetTimer()
			for i, c := range clients {
				wg.Add(1)
				go func(i int, c *netbarrier.Client) {
					defer wg.Done()
					for ep := 0; ep < b.N; ep++ {
						if _, err := c.Wait(); err != nil {
							errs[i] = err
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			b.StopTimer()
			for i, err := range errs {
				if err != nil {
					b.Fatalf("client %d: %v", i, err)
				}
			}
		})
	}
}
