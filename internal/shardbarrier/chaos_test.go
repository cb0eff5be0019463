package shardbarrier

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/wire/memnet"
)

// The chaos acceptance run: a hierarchical fleet on a fault-injecting
// transport, a thousand-plus clients arriving in waves of cohorts, and
// three properties that must hold no matter what the chaos schedule does:
//
//  1. No stuck episodes. Every blocking call either completes or returns
//     an error within stuckAfter — a fault may poison a session, but it
//     may never strand a client.
//  2. Every poison cause is delivered: when a member is killed mid-episode
//     its cohort-mates all learn promptly, and directed scenarios check
//     the cause's errors.Is/As identity survives the leaf→root→leaf trip.
//  3. Every AllReduce result that IS delivered is ledger-verified: the
//     folded value equals the sequential sum of the cohort's deterministic
//     contributions — faults may abort an episode, never corrupt one.

const stuckAfter = 30 * time.Second

var errStuck = errors.New("chaos acceptance: call exceeded the stuck deadline")

// await runs f with the stuck detector: exceeding stuckAfter is the one
// unforgivable outcome, reported immediately.
func await(t *testing.T, what string, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(stuckAfter):
		t.Errorf("STUCK: %s made no progress for %v", what, stuckAfter)
		return errStuck
	}
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func TestChaosAcceptanceFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos acceptance is the long fleet run")
	}
	const (
		leaves = 4

		ledgerSlots, ledgerP, ledgerGens, ledgerEpisodes = 16, 8, 5, 4
		churnSlots, churnP, churnGens, churnEpisodes     = 16, 4, 8, 3
	)
	op := softbarrier.OpSumUint64()
	tr := New(memnet.New(), 0xACCE55, Config{
		WriteLatency: 50 * time.Microsecond, WriteJitter: 200 * time.Microsecond,
		ReadLatency: 50 * time.Microsecond, ReadJitter: 200 * time.Microsecond,
		ResetProb: 0.002, TruncateProb: 0.002,
		StallProb: 0.005, StallFor: 50 * time.Millisecond,
		PartitionProb: 0.001, PartitionFor: 50 * time.Millisecond,
		SlowLorisProb: 0.005, SlowLorisPace: time.Millisecond, SlowLorisBytes: 8,
	})
	f, err := StartFleet(FleetOptions{
		Leaves:    leaves,
		Transport: tr,
		Bind:      "mem:0",
		Net: netbarrier.Options{
			Watchdog:     2 * time.Second,
			WriteTimeout: 2 * time.Second,
			Op:           &op,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addrs := f.LeafAddrs()

	var (
		joins, poisons, episodes, ledgerChecks atomic.Int64
		kills, killDeliveries                  atomic.Int64
	)

	// dialJoinRetry absorbs chaos-killed handshakes: a reset JoinReq or a
	// truncated JoinResp just means dial again. A refusal can also be
	// transient — "id already taken" until the server notices the previous
	// incarnation's dead socket — so everything retries within a budget.
	dialJoinRetry := func(addr, session string, p, id int) (*netbarrier.Client, error) {
		deadline := time.Now().Add(8 * time.Second)
		for {
			c, err := netbarrier.DialVia(tr, addr, 2*time.Second)
			if err == nil {
				if err = c.JoinAs(session, p, id); err == nil {
					joins.Add(1)
					return c, nil
				}
				c.Close()
			}
			if time.Now().After(deadline) {
				return nil, err
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// contribution is (global id, episode)-deterministic, so the expected
	// fold is computable without coordination. Wrapping u64 addition is
	// exact under any grouping, so the hierarchical fold must match it
	// bit for bit.
	contribution := func(i int, ep int) uint64 { return uint64(i)*1_000_003 + uint64(ep) + 1 }
	expected := func(p, ep int) uint64 {
		var sum uint64
		for i := 0; i < p; i++ {
			sum += contribution(i, ep)
		}
		return sum
	}

	// runLedger drives one collective cohort generation: join everywhere,
	// AllReduce ledgerEpisodes times, verify each delivered result. A
	// chaos-poisoned generation just ends; a wrong result or a stuck call
	// fails the test.
	runLedger := func(slot, gen int) {
		name := fmt.Sprintf("led-%02d-g%d", slot, gen)
		perLeaf := ledgerP / leaves
		cs := make([]*netbarrier.Client, ledgerP)
		for i := range cs {
			leaf := leafFor(i, ledgerP, leaves)
			c, err := dialJoinRetry(addrs[leaf], name, perLeaf, i-leaf*perLeaf)
			if err != nil {
				// The cohort can't form (chaos ate the joins); abandon the
				// generation. Closing the joined members poisons the
				// session, which is itself a delivery path under test.
				for _, c := range cs[:i] {
					c.Close()
				}
				return
			}
			cs[i] = c
		}
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *netbarrier.Client) {
				defer wg.Done()
				defer c.Close()
				for ep := 0; ep < ledgerEpisodes; ep++ {
					var res []byte
					err := await(t, fmt.Sprintf("%s member %d episode %d", name, i, ep), func() error {
						var err error
						res, err = c.AllReduce(u64bytes(contribution(i, ep)))
						return err
					})
					if err != nil {
						poisons.Add(1)
						return
					}
					episodes.Add(1)
					if got := binary.BigEndian.Uint64(res); got != expected(ledgerP, ep) {
						t.Errorf("%s member %d episode %d: folded %d, ledger says %d",
							name, i, ep, got, expected(ledgerP, ep))
						return
					}
					ledgerChecks.Add(1)
				}
				c.Leave() // graceful: an abrupt Close would poison mates whose releases are in flight
			}(i, c)
		}
		wg.Wait()
	}

	// runChurn drives one plain-barrier cohort generation. Every third
	// generation ends with a mid-episode kill: the victim closes without
	// arriving and each cohort-mate must learn of it — the
	// every-poison-delivered half of the acceptance.
	runChurn := func(slot, gen int) {
		name := fmt.Sprintf("churn-%02d-g%d", slot, gen)
		kill := gen%3 == 0
		cs := make([]*netbarrier.Client, churnP)
		for i := range cs {
			leaf := leafFor(i, churnP, leaves)
			c, err := dialJoinRetry(addrs[leaf], name, churnP/leaves, -1)
			if err != nil {
				for _, c := range cs[:i] {
					c.Close()
				}
				return
			}
			cs[i] = c
		}
		clean := make([]atomic.Bool, churnP)
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(i int, c *netbarrier.Client) {
				defer wg.Done()
				for ep := 0; ep < churnEpisodes; ep++ {
					err := await(t, fmt.Sprintf("%s member %d episode %d", name, i, ep), func() error {
						_, err := c.Wait()
						return err
					})
					if err != nil {
						poisons.Add(1)
						return
					}
					episodes.Add(1)
				}
				clean[i].Store(true)
			}(i, c)
		}
		wg.Wait()
		allClean := true
		for i := range clean {
			if !clean[i].Load() {
				allClean = false
			}
		}
		if kill && allClean {
			// One more episode: members 1..n wait, member 0 dies unarrived.
			kills.Add(1)
			var peers sync.WaitGroup
			for _, c := range cs[1:] {
				peers.Add(1)
				go func(c *netbarrier.Client) {
					defer peers.Done()
					err := await(t, name+" kill-episode waiter", func() error {
						_, err := c.Wait()
						return err
					})
					if err != nil && err != errStuck {
						killDeliveries.Add(1)
					}
				}(c)
			}
			time.Sleep(5 * time.Millisecond)
			cs[0].Close()
			peers.Wait()
		} else {
			for _, c := range cs {
				c.Leave()
			}
			return
		}
		for _, c := range cs[1:] {
			c.Close()
		}
	}

	var slots sync.WaitGroup
	for s := 0; s < ledgerSlots; s++ {
		slots.Add(1)
		go func(s int) {
			defer slots.Done()
			for g := 0; g < ledgerGens; g++ {
				runLedger(s, g)
			}
		}(s)
	}
	for s := 0; s < churnSlots; s++ {
		slots.Add(1)
		go func(s int) {
			defer slots.Done()
			for g := 0; g < churnGens; g++ {
				runChurn(s, g)
			}
		}(s)
	}
	slots.Wait()

	// Directed identity scenarios on the same chaotic fleet: a chaos fault
	// can poison the session before the directed cause lands, so each
	// scenario retries until its cause is the one observed.

	// errors.Is identity: a member poisons with context.Canceled; the
	// sentinel must come out of every other member's Wait.
	cancelOK := false
	for attempt := 0; attempt < 5 && !cancelOK; attempt++ {
		name := fmt.Sprintf("ident-cancel-%d", attempt)
		cs := make([]*netbarrier.Client, leaves)
		ok := true
		for i := range cs {
			c, err := dialJoinRetry(addrs[i], name, 1, -1)
			if err != nil {
				ok = false
				break
			}
			cs[i] = c
		}
		if !ok {
			for _, c := range cs {
				if c != nil {
					c.Close()
				}
			}
			continue
		}
		// Warmup episode: every leaf's root link must exist before the
		// poison, or the cause has no path up.
		var cold atomic.Bool
		var warmWG sync.WaitGroup
		for _, c := range cs {
			warmWG.Add(1)
			go func(c *netbarrier.Client) {
				defer warmWG.Done()
				if await(t, name+" warmup", func() error { _, err := c.Wait(); return err }) != nil {
					cold.Store(true)
				}
			}(c)
		}
		warmWG.Wait()
		if cold.Load() {
			for _, c := range cs {
				c.Close()
			}
			continue
		}
		errsCh := make(chan error, leaves-1)
		var wg sync.WaitGroup
		for _, c := range cs[1:] {
			wg.Add(1)
			go func(c *netbarrier.Client) {
				defer wg.Done()
				errsCh <- await(t, name+" waiter", func() error {
					_, err := c.Wait()
					return err
				})
			}(c)
		}
		time.Sleep(5 * time.Millisecond)
		cs[0].Poison(context.Canceled)
		wg.Wait()
		close(errsCh)
		got := true
		for err := range errsCh {
			if !errors.Is(err, context.Canceled) {
				got = false
			}
		}
		cancelOK = got
		for _, c := range cs {
			c.Close()
		}
	}
	if !cancelOK {
		t.Error("context.Canceled never crossed the fleet with errors.Is identity intact")
	}

	// errors.As identity: a member that never arrives trips the leaf
	// watchdog; the StallError naming it must come out of the arrived
	// members' Wait, fields intact.
	stallOK := false
	for attempt := 0; attempt < 5 && !stallOK; attempt++ {
		name := fmt.Sprintf("ident-stall-%d", attempt)
		cs := make([]*netbarrier.Client, 3)
		ok := true
		for i := range cs {
			c, err := dialJoinRetry(addrs[0], name, 3, i)
			if err != nil {
				ok = false
				break
			}
			cs[i] = c
		}
		if !ok {
			for _, c := range cs {
				if c != nil {
					c.Close()
				}
			}
			continue
		}
		errsCh := make(chan error, 2)
		var wg sync.WaitGroup
		for _, c := range cs[:2] {
			wg.Add(1)
			go func(c *netbarrier.Client) {
				defer wg.Done()
				errsCh <- await(t, name+" waiter", func() error {
					_, err := c.Wait()
					return err
				})
			}(c)
		}
		wg.Wait() // member 2 never arrives; the 2s watchdog poisons
		close(errsCh)
		got := true
		for err := range errsCh {
			var stall *softbarrier.StallError
			if !errors.As(err, &stall) {
				got = false
				continue
			}
			found := false
			for _, id := range stall.Missing {
				if id == 2 {
					found = true
				}
			}
			if !found {
				t.Errorf("StallError crossed the wire but lost the missing id: %+v", stall)
			}
		}
		stallOK = got
		for _, c := range cs {
			c.Close()
		}
	}
	if !stallOK {
		t.Error("StallError never crossed the fleet with errors.As identity intact")
	}

	t.Logf("chaos acceptance: %d joins, %d episodes (%d ledger-verified), %d poisons delivered, %d/%d kill deliveries",
		joins.Load(), episodes.Load(), ledgerChecks.Load(), poisons.Load(),
		killDeliveries.Load(), kills.Load()*int64(churnP-1))

	if j := joins.Load(); j < 1000 {
		t.Errorf("acceptance ran %d clients; the bar is 1000+", j)
	}
	if ledgerChecks.Load() < 100 {
		t.Errorf("only %d AllReduce results survived to be ledger-verified; chaos config is drowning the fleet", ledgerChecks.Load())
	}
	if want := kills.Load() * int64(churnP-1); killDeliveries.Load() != want {
		t.Errorf("%d of %d kill poisons delivered; every cohort-mate of a killed member must learn of it", killDeliveries.Load(), want)
	}
	if kills.Load() == 0 {
		t.Error("no kill generation completed cleanly; the delivery property went unexercised")
	}
}

// TestChaosFleetQuietSmoke is the cheap always-on twin of the acceptance
// run: a fault-free chaos wrapper (latency only) over a fleet, a handful
// of cohorts, every result ledger-verified. It keeps the chaos-over-fleet
// wiring covered in -short runs where the full acceptance is skipped.
func TestChaosFleetQuietSmoke(t *testing.T) {
	const leaves, p, eps = 2, 4, 5
	op := softbarrier.OpSumUint64()
	tr := New(memnet.New(), 7, Config{
		WriteLatency: 20 * time.Microsecond, WriteJitter: 100 * time.Microsecond,
		ReadLatency: 20 * time.Microsecond, ReadJitter: 100 * time.Microsecond,
	})
	f, err := StartFleet(FleetOptions{
		Leaves:    leaves,
		Transport: tr,
		Bind:      "mem:0",
		Net:       netbarrier.Options{Watchdog: 10 * time.Second, Op: &op},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	addrs := f.LeafAddrs()

	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leaf := leafFor(i, p, leaves)
			c, err := netbarrier.DialVia(tr, addrs[leaf], 5*time.Second)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer c.Leave()
			if err := c.Join("quiet", p/leaves); err != nil {
				t.Errorf("client %d join: %v", i, err)
				return
			}
			for ep := 0; ep < eps; ep++ {
				res, err := c.AllReduce(u64bytes(uint64(i*10 + ep)))
				if err != nil {
					t.Errorf("client %d episode %d: %v", i, ep, err)
					return
				}
				var want uint64
				for j := 0; j < p; j++ {
					want += uint64(j*10 + ep)
				}
				if got := binary.BigEndian.Uint64(res); got != want {
					t.Errorf("client %d episode %d: folded %d, want %d", i, ep, got, want)
				}
			}
		}(i)
	}
	wg.Wait()
	if !strings.HasPrefix(addrs[0], "mem:") {
		t.Fatalf("fleet bound %q; want mem: addresses for the chaos run", addrs[0])
	}
}
