// Networked barrier example: one binary hosts an in-process barrierd and
// drives 16 loopback clients through 100 episodes.
//
// The workload deliberately changes shape mid-run: episodes 0–39 arrive
// nearly together (σ ≈ µs — the model wants a narrow tree), episodes
// 40–69 add per-worker jitter up to 1.5 ms (large σ — the model wants a
// wide tree), and 70–99 go quiet again. Watch the deg column: the server
// measures the spread of every episode, folds it into an EWMA σ, and
// re-plans the combining-tree degree when the recommendation moves — the
// paper's σ-to-degree curve, observable over TCP.
//
// The process exits non-zero if any client sees a stall or error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"softbarrier/internal/cli"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/stats"
)

const (
	workers  = 16
	episodes = 100
)

// phasedDelays pre-draws the per-episode, per-worker arrival delays: 40
// quiet episodes, 30 with jitter uniform in [0, 1.5ms), quiet again to
// the end. One shared schedule (instead of a per-client RNG) keeps the
// workload description in one place — the same loadmodel generators the
// simulator sweeps.
func phasedDelays() [][]float64 {
	quiet := loadmodel.IID{N: workers, Dist: stats.Degenerate{}}
	burst := loadmodel.IID{N: workers, Dist: stats.Uniform{Hi: 1500e-6}}
	gen := loadmodel.Phased{Phases: []loadmodel.Phase{
		{Episodes: 40, Gen: quiet},
		{Episodes: 30, Gen: burst},
		{Episodes: 0, Gen: quiet}, // runs forever
	}}
	return loadmodel.Schedule(gen, episodes, 1)
}

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

// run hosts the server, drives the clients through every episode, and
// prints the release table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	nf := cli.AddNetFlags(fs)
	quiet := fs.Bool("quiet", false, "print only the episodes around a degree change")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{}
	}

	opt, err := nf.Options()
	if err != nil {
		return usageError{err.Error()}
	}
	replanSet := false
	fs.Visit(func(f *flag.Flag) { replanSet = replanSet || f.Name == "replan" })
	if !replanSet { // demo default: re-plan often enough to see the shift
		opt.ReplanEvery = 5
	}

	srv := netbarrier.NewServer(opt)
	go srv.ListenAndServe("127.0.0.1:0")
	defer srv.Close()
	addr, err := waitAddr(srv)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "barrierd on %s, %d clients x %d episodes\n", addr, workers, episodes)

	clients := make([]*netbarrier.Client, workers)
	for i := range clients {
		c, err := netbarrier.Dial(addr)
		if err == nil {
			err = c.Join("demo", workers)
		}
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		clients[i] = c
	}

	// Client 0 reports each episode's telemetry; all clients run the
	// phased workload. Releases are identical on every socket, so one
	// reporter suffices.
	delays := phasedDelays()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	rels := make([]netbarrier.Release, episodes)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *netbarrier.Client) {
			defer wg.Done()
			defer c.Leave()
			for ep := 0; ep < episodes; ep++ {
				if d := delays[ep][i]; d > 0 {
					time.Sleep(time.Duration(d * float64(time.Second)))
				}
				r, err := c.Wait()
				if err != nil {
					errs[i] = fmt.Errorf("client %d failed: %w", i, err)
					return
				}
				if i == 0 {
					rels[ep] = r
				}
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%8s %5s %12s %12s\n", "episode", "deg", "spread", "sigma")
	prev := -1
	for ep, r := range rels {
		changed := r.Degree != prev
		if !*quiet || changed || ep == episodes-1 {
			mark := "  "
			if changed && prev != -1 {
				mark = "<- re-plan"
			}
			fmt.Fprintf(stdout, "%8d %5d %12s %12s %s\n", r.Episode, r.Degree,
				cli.Dur(r.Spread), cli.Dur(r.Sigma), mark)
		}
		prev = r.Degree
	}
	fmt.Fprintf(stdout, "all %d clients completed %d episodes\n", workers, episodes)
	return nil
}

// waitAddr polls until the server has bound its ephemeral port.
func waitAddr(srv *netbarrier.Server) (string, error) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a := srv.Addr(); a != "" {
			return a, nil
		}
		time.Sleep(time.Millisecond)
	}
	return "", fmt.Errorf("server did not bind a listener within 5s")
}
