// Command sorbench runs the paper's SOR relaxation with real goroutines
// and a selectable barrier from the softbarrier library, reporting
// wall-clock time per iteration and verifying the result against the
// sequential solver.
//
// This is the goroutine analogue of the paper's §7 KSR1 program. Absolute
// numbers depend on the Go scheduler and core count (the quantitative
// reproduction uses the simulator; see cmd/experiments), but the program
// demonstrates the library end-to-end on a real workload.
//
// Usage:
//
//	sorbench -p 8 -dx 60 -dy 210 -iters 200 -barrier dynamic -degree 4
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"softbarrier"
	"softbarrier/internal/sor"
)

// episodeLog collects every barrier episode's telemetry for the -stats
// JSON dump. Emission points are serialized by the barrier, but the
// observer contract does not promise a single goroutine, so lock anyway.
type episodeLog struct {
	mu       sync.Mutex
	episodes []softbarrier.EpisodeStats
}

func (l *episodeLog) Episode(st softbarrier.EpisodeStats) {
	l.mu.Lock()
	l.episodes = append(l.episodes, st)
	l.mu.Unlock()
}

// dump writes the collected episodes as JSON to path ("-" for stdout),
// wrapped with the run configuration and the aggregate view.
func (l *episodeLog) dump(path string, stdout io.Writer, cfg map[string]any, agg *softbarrier.Aggregate) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"config":   cfg,
		"summary":  agg.Summary(),
		"episodes": l.episodes,
	})
}

// multiObserver fans one episode stream out to several observers.
type multiObserver []softbarrier.Observer

func (m multiObserver) Episode(st softbarrier.EpisodeStats) {
	for _, o := range m {
		o.Episode(st)
	}
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

// run solves the grid sequentially and in parallel on the chosen barrier,
// reports to stdout, and fails unless the two results agree.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		p        = fs.Int("p", 8, "number of worker goroutines")
		dx       = fs.Int("dx", 60, "grid rows per worker")
		dy       = fs.Int("dy", 210, "grid columns")
		iters    = fs.Int("iters", 200, "relaxation iterations")
		barrier  = fs.String("barrier", "tree", "barrier: central | tree | mcs | dynamic | adaptive | dissemination | tournament")
		degree   = fs.Int("degree", 4, "tree degree for -barrier tree, mcs and dynamic")
		method   = fs.String("method", "jacobi", "relaxation method: jacobi (the paper's two-array sweep) | sor (red/black over-relaxation, ω*)")
		stats    = fs.String("stats", "", "dump per-episode barrier telemetry as JSON to this file (\"-\" for stdout)")
		eps      = fs.Float64("eps", 0, "run -method sor to this RMS residual instead of a fixed sweep count (-iters caps it); the residual is folded through the barrier's AllReduce")
		chkEvery = fs.Int("check-every", 10, "sweeps between residual convergence checks when -eps is set")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{}
	}

	if *eps > 0 && *method != "sor" {
		return usageError{"-eps requires -method sor"}
	}

	var opts []softbarrier.Option
	if *eps > 0 {
		// The convergence test is a sum-f64 AllReduce riding the barrier.
		opts = append(opts, softbarrier.WithCollective(softbarrier.OpSumFloat64()))
	}
	log := &episodeLog{}
	agg := softbarrier.NewAggregate()
	if *stats != "" {
		opts = append(opts, softbarrier.WithObserver(multiObserver{log, agg}))
	}

	var b sor.Barrier
	switch *barrier {
	case "central":
		b = softbarrier.NewCentral(*p, opts...)
	case "tree":
		b = softbarrier.NewCombiningTree(*p, *degree, opts...)
	case "mcs":
		b = softbarrier.NewMCSTree(*p, *degree, opts...)
	case "dynamic":
		b = softbarrier.NewDynamic(*p, *degree, opts...)
	case "adaptive":
		b = softbarrier.NewReconfigurable(*p, softbarrier.ReconfigConfig{ReplanEvery: 10}, opts...)
	case "dissemination":
		b = softbarrier.NewDissemination(*p, opts...)
	case "tournament":
		b = softbarrier.NewTournament(*p, opts...)
	default:
		return usageError{fmt.Sprintf("unknown barrier %q", *barrier)}
	}

	nx := *p**dx + 2 // interior rows plus fixed boundary
	mk := func() *sor.Grid {
		g := sor.NewGrid(nx, *dy+2)
		for y := 0; y < *dy+2; y++ {
			g.SetBoth(0, y, 1) // hot upper boundary drives the relaxation
		}
		return g
	}

	ref := mk()
	g := mk()
	var seqTime, parTime time.Duration
	var buf, refBuf int
	switch *method {
	case "jacobi":
		seqStart := time.Now()
		refBuf = ref.SolveSeq(*iters)
		seqTime = time.Since(seqStart)
		parStart := time.Now()
		buf = g.SolvePar(*p, *iters, b)
		parTime = time.Since(parStart)
	case "sor":
		omega := sor.OmegaOpt(nx-2, *dy)
		fmt.Fprintf(stdout, "red/black SOR with ω* = %.4f\n", omega)
		if *eps > 0 {
			cb, ok := b.(sor.ConvergeBarrier)
			if !ok {
				return usageError{fmt.Sprintf("barrier %q cannot carry the residual AllReduce; use tree, mcs, dynamic or adaptive", *barrier)}
			}
			seqStart := time.Now()
			seqSweeps, seqRMS := ref.SolveSORSeqUntil(omega, *eps, *chkEvery, *iters, *p)
			seqTime = time.Since(seqStart)
			parStart := time.Now()
			parSweeps, parRMS, err := g.SolveSORParUntil(*p, omega, *eps, *chkEvery, *iters, cb)
			parTime = time.Since(parStart)
			if err != nil {
				return fmt.Errorf("parallel solve failed: %w", err)
			}
			if parSweeps != seqSweeps || parRMS != seqRMS {
				return fmt.Errorf("FAIL: parallel converged at sweep %d (RMS %g), sequential at %d (RMS %g)",
					parSweeps, parRMS, seqSweeps, seqRMS)
			}
			conv := "converged"
			if parSweeps >= *iters && parRMS > *eps {
				conv = "gave up"
			}
			fmt.Fprintf(stdout, "%s at sweep %d, RMS residual %.3g (target %.3g, checked every %d sweeps)\n",
				conv, parSweeps, parRMS, *eps, *chkEvery)
			*iters = parSweeps // per-iteration reporting below divides by sweeps run
		} else {
			seqStart := time.Now()
			ref.SolveSORSeq(omega, *iters)
			seqTime = time.Since(seqStart)
			parStart := time.Now()
			g.SolveSORPar(*p, omega, *iters, b)
			parTime = time.Since(parStart)
		}
	default:
		return usageError{fmt.Sprintf("unknown method %q", *method)}
	}

	if buf != refBuf || g.Checksum(buf) != ref.Checksum(refBuf) {
		return errors.New("FAIL: parallel result differs from sequential")
	}

	// The degree reported is the one the barrier ran at: the tree's own,
	// which for the adaptive barrier is its last plan's, and none for a
	// barrier that has no tree.
	treeDegree, hasDegree := b.(interface{ Degree() int })
	fmt.Fprintf(stdout, "SOR %dx%d, %d iterations, %d workers, barrier=%s", nx, *dy+2, *iters, *p, *barrier)
	if hasDegree {
		fmt.Fprintf(stdout, " degree=%d", treeDegree.Degree())
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "sequential: %v total, %v/iteration\n", seqTime.Round(time.Millisecond), (seqTime / time.Duration(*iters)).Round(time.Microsecond))
	fmt.Fprintf(stdout, "parallel:   %v total, %v/iteration\n", parTime.Round(time.Millisecond), (parTime / time.Duration(*iters)).Round(time.Microsecond))
	fmt.Fprintf(stdout, "result verified against sequential solver (checksum %.6g)\n", g.Checksum(buf))
	if d, ok := b.(*softbarrier.DynamicBarrier); ok {
		fmt.Fprintf(stdout, "dynamic placement performed %d swaps\n", d.Swaps())
	}
	if a, ok := b.(*softbarrier.ReconfigurableBarrier); ok {
		rs := a.ReconfigStats()
		fmt.Fprintf(stdout, "adaptive barrier: degree %d, σ estimate %v, epoch %d over %d evals\n",
			a.Degree(), time.Duration(a.Sigma()*float64(time.Second)).Round(time.Microsecond),
			rs.LastPlan.Epoch, rs.Evals)
	}

	if *stats != "" {
		cfg := map[string]any{
			"p": *p, "dx": *dx, "dy": *dy, "iters": *iters,
			"barrier": *barrier, "method": *method,
		}
		if hasDegree {
			cfg["degree"] = treeDegree.Degree()
		}
		if err := log.dump(*stats, stdout, cfg, agg); err != nil {
			return fmt.Errorf("stats dump failed: %w", err)
		}
		if *stats != "-" {
			s := agg.Summary()
			fmt.Fprintf(stdout, "telemetry: %d episodes to %s, measured σ %v\n",
				s.Episodes, *stats, time.Duration(s.Sigma*float64(time.Second)).Round(time.Nanosecond))
		}
	}
	return nil
}
