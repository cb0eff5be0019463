// Command tracegen records a synthetic workload as a replayable trace
// file (one iteration per line, comma-separated per-processor work times
// in seconds), the interchange format cmd/barriersim's -tracefile flag
// replays. Sites with real per-iteration timing data can write the same
// format directly and run the whole experiment harness on their traces.
//
// Usage:
//
//	tracegen -p 64 -iters 200 -workload normal -sigma 0.25ms > trace.csv
//	tracegen -p 56 -workload sor -dy 210 > sor.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"softbarrier/internal/ksr"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/sor"
	"softbarrier/internal/stats"
	"softbarrier/internal/workload"
)

func main() {
	var (
		p     = flag.Int("p", 64, "number of processors")
		iters = flag.Int("iters", 200, "iterations to record")
		kind  = flag.String("workload", "normal", "workload: normal | systemic | evolving | sor")
		mu    = flag.Duration("mu", 10*time.Millisecond, "mean work time")
		sigma = flag.Duration("sigma", 250*time.Microsecond, "work time standard deviation")
		sprd  = flag.Duration("spread", time.Millisecond, "systemic offset spread")
		rho   = flag.Float64("rho", 0.9, "evolving workload autocorrelation")
		dx    = flag.Int("dx", 60, "SOR rows per processor")
		dy    = flag.Int("dy", 210, "SOR y-dimension")
		seed  = flag.Uint64("seed", 1, "PRNG seed")
	)
	flag.Parse()

	var w loadmodel.Generator
	switch *kind {
	case "normal":
		w = loadmodel.IID{N: *p, Dist: stats.Normal{Mu: mu.Seconds(), Sigma: sigma.Seconds()}}
	case "systemic":
		w = loadmodel.StaticSkew{
			Base:    loadmodel.IID{N: *p, Dist: stats.Normal{Mu: mu.Seconds(), Sigma: sigma.Seconds()}},
			Offsets: loadmodel.LinearOffsets(*p, sprd.Seconds()),
		}
	case "evolving":
		w = &loadmodel.Drift{N: *p, Dist: stats.Normal{Mu: mu.Seconds(), Sigma: sigma.Seconds()},
			Rho: *rho, InnovSigma: sigma.Seconds() / 4}
	case "sor":
		m := ksr.New56()
		if *p != m.P() {
			// Scale the machine's rings to the requested size.
			half := *p / 2
			if half < 2 || *p%2 != 0 {
				fmt.Fprintln(os.Stderr, "sor workload needs an even processor count ≥ 4")
				os.Exit(2)
			}
			m.Rings = []int{half, *p - half}
		}
		w = sor.NewTimingModel(m, *dx, *dy)
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *kind)
		os.Exit(2)
	}

	tr := workload.Record(w, *iters, *seed)
	if err := workload.WriteTrace(os.Stdout, tr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
