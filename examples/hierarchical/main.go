// Hierarchical barrier example: one binary starts an in-process fleet —
// a root barrierd plus -leaves leaf shards on loopback — and drives 32
// clients, split evenly across the leaves, through 90 AllReduce
// episodes. Each leaf combines its local cohort through its own
// σ-planned tree, forwards one aggregated arrival (and one partial sum)
// per episode to the root, and fans the root's fleet-wide release back
// out; the demo is the two-process-level version of examples/netbarrier.
//
// Two things to watch in the output:
//
//   - The fold column: every release carries the fleet-wide sum, and the
//     demo checks it against the sequential fold every episode. The
//     contributions are integer-valued float64s, so the two-level
//     grouping (per-shard folds, folded in ascending shard id at the
//     root) is bit-identical to the flat left fold — the determinism the
//     wire protocol promises.
//   - The deg column per leaf: episodes 30–59 add per-worker jitter up
//     to 2 ms, inflating each leaf's measured σ. Leaves plan their local
//     trees independently, so their re-plans (marked <-) need not land
//     on the same episode, but each should widen during the noisy phase.
//
// The process exits non-zero if any client sees an error or a wrong fold.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"
	"time"

	"softbarrier"
	"softbarrier/internal/cli"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/shardbarrier"
)

const (
	workers  = 32
	episodes = 90
	jitterLo = 30 // first jittered episode
	jitterHi = 60 // first quiet episode after the burst
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	if msg := err.Error(); msg != "" {
		fmt.Fprintln(os.Stderr, msg)
	}
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad command line, on which main exits 2 rather than 1.
// A refusal by the FlagSet, which has printed its own, has no message.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

// run starts the fleet, drives every client through every episode, and
// prints each leaf's release table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	leaves := fs.Int("leaves", 2, "leaf shards in the fleet")
	quiet := fs.Bool("quiet", false, "print only the episodes around a degree change")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{}
	}
	if *leaves < 1 || workers%*leaves != 0 {
		return fmt.Errorf("-leaves must divide %d clients, got %d", workers, *leaves)
	}

	op := softbarrier.OpSumFloat64()
	fleet, err := shardbarrier.StartFleet(shardbarrier.FleetOptions{
		Leaves: *leaves,
		Net: netbarrier.Options{
			Watchdog:    30 * time.Second,
			ReplanEvery: 5,
			Op:          &op,
		},
	})
	if err != nil {
		return err
	}
	defer fleet.Close()
	addrs := fleet.LeafAddrs()
	fmt.Fprintf(stdout, "%v, %d clients x %d episodes of sum-f64 AllReduce\n", fleet, workers, episodes)

	// Client i joins leaf i*leaves/workers; the first client of each leaf
	// records that leaf's release stream (leaf-mates share it).
	perLeaf := workers / *leaves
	rels := make([][]netbarrier.Release, *leaves)
	for l := range rels {
		rels[l] = make([]netbarrier.Release, episodes)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leaf := i * *leaves / workers
			c, err := netbarrier.Dial(addrs[leaf])
			if err == nil {
				err = c.Join("demo", perLeaf)
			}
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Leave()
			rng := rand.New(rand.NewSource(int64(i)*2654435761 + 1))
			for ep := 0; ep < episodes; ep++ {
				if ep >= jitterLo && ep < jitterHi {
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
				if err := c.ArriveReduce(f64bytes(contribution(i, ep))); err != nil {
					errs[i] = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				r, err := c.Await()
				if err != nil {
					errs[i] = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if got, want := f64of(r.Result), expectedSum(ep); got != want {
					errs[i] = fmt.Errorf("episode %d: fleet fold %v, sequential fold %v", ep, got, want)
					return
				}
				if i == leaf*perLeaf {
					rels[leaf][ep] = r
				}
			}
		}(i)
	}
	wg.Wait()

	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("client %d failed: %w", i, err))
		}
	}
	if len(failed) > 0 {
		return errors.Join(failed...)
	}

	for l := 0; l < *leaves; l++ {
		fmt.Fprintf(stdout, "\nleaf %d (%s):\n", l, addrs[l])
		fmt.Fprintf(stdout, "%8s %5s %12s %12s %16s\n", "episode", "deg", "spread", "sigma", "fold")
		prev := -1
		for ep, r := range rels[l] {
			changed := r.Degree != prev
			if !*quiet || changed || ep == episodes-1 {
				mark := "  "
				if changed && prev != -1 {
					mark = "<- re-plan"
				}
				fmt.Fprintf(stdout, "%8d %5d %12s %12s %16.0f %s\n", r.Episode, r.Degree,
					cli.Dur(r.Spread), cli.Dur(r.Sigma), f64of(r.Result), mark)
			}
			prev = r.Degree
		}
	}
	fmt.Fprintf(stdout, "\nall %d clients completed %d ledger-verified episodes across %d leaves\n",
		workers, episodes, *leaves)
	return nil
}

// contribution is client i's episode-ep input: integer-valued, so the
// fleet-wide sum (< 2^53) is exact under any fold grouping and the
// bit-identity check below is meaningful rather than tolerance-based.
func contribution(i, ep int) float64 { return float64(i*1000 + ep%7 + 1) }

// expectedSum is the sequential left fold of every client's contribution.
func expectedSum(ep int) float64 {
	s := 0.0
	for i := 0; i < workers; i++ {
		s += contribution(i, ep)
	}
	return s
}

func f64bytes(v float64) []byte {
	b := math.Float64bits(v)
	return []byte{byte(b >> 56), byte(b >> 48), byte(b >> 40), byte(b >> 32),
		byte(b >> 24), byte(b >> 16), byte(b >> 8), byte(b)}
}

func f64of(b []byte) float64 {
	if len(b) != 8 {
		return math.NaN()
	}
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	return math.Float64frombits(v)
}
