// Command barriersim is the simulation command. An optional first argument
// picks the mode (run, the default; model; sweep; record: see usage), and
// every mode reads its settings from one set of flags. model prints §3's
// worked example: the subset partition along the last processor's path,
// each subset's arrival and release times, and the resulting delay.
//
// Usage:
//
//	barriersim -p 4096 -degree 16 -sigma 0.25ms [-tree mcs] [-dynamic]
//	           [-slack 4ms] [-episodes 200] [-warmup 20] [-tc 20us] [-seed 1]
//	           [-placement ewma] [-replan 5]
//	barriersim model -p 4096 -degree 4 -sigma 0.25ms [-tc 20us]
//	barriersim sweep -p 4096 -sigma 0.5ms [-episodes 200] [-tree mcs] [-workers N]
//	barriersim record -p 64 -episodes 200 -workload normal -sigma 0.25ms > trace.csv
//	barriersim record -p 56 -workload sor -dy 210 > sor.csv
//	barriersim -tracefile trace.csv -degree 4
//
// Durations accept Go syntax (e.g. 250us, 0.25ms). sweep simulates its
// candidate degrees in parallel across -workers workers (default: all
// CPUs), and its output is identical for every worker count.
//
// With -placement, a predictive straggler-placement policy (see
// softbarrier.PlacementNames) observes every episode's arrival lags and,
// every -replan episodes, rebuilds the tree with its laggiest-first
// ranking in the shallowest slots. Placement runs ignore -slack (the
// policy engine drives episodes directly).
//
// A trace file holds one iteration per line, comma-separated per-processor
// work times in seconds; run's -tracefile replays it in place of -sigma,
// taking p from the file. Sites with real per-iteration timing data can
// write the same format directly and simulate their own traces.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"softbarrier"
	"softbarrier/internal/barriersim"
	"softbarrier/internal/cli"
	"softbarrier/internal/ksr"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/model"
	"softbarrier/internal/sor"
	"softbarrier/internal/stats"
	"softbarrier/internal/topology"
	"softbarrier/internal/trace"
)

const usage = `Usage: barriersim [run|model|sweep|record] [flags]

  run     simulate one configuration (the default)
  model   work the analytic model (Algorithm 1) step by step for -degree
  sweep   simulate every candidate degree beside the model's estimate
  record  write -episodes iterations of -workload to stdout as a trace file

Every mode shares the flags and defaults below.

`

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "barriersim:", err)
		os.Exit(2)
	}
}

// modes maps a mode name to what it does with the parsed flags.
var modes = map[string]func(c *config, stdout io.Writer) error{
	"run":    simulate,
	"model":  workModel,
	"sweep":  sweepDegrees,
	"record": record,
}

// run executes one command line (without the program name), writing the
// mode's report to stdout.
func run(args []string, stdout io.Writer) error {
	mode := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		mode, args = args[0], args[1:]
	}
	do, ok := modes[mode]
	if !ok {
		return fmt.Errorf("unknown mode %q (want run, model, sweep or record)", mode)
	}
	c, err := parseFlags(args)
	if err != nil {
		return err
	}
	return do(c, stdout)
}

// config holds every flag; each mode reads the ones it needs.
type config struct {
	p, degree, episodes, warmup, replan int
	sigma, tc, slack                    time.Duration
	dynamic, showTrace                  bool
	seed                                uint64
	traceFile, placement                string
	tree                                treeFlags
	engine                              *cli.EngineFlags

	// record's workload.
	workload   string
	mu, spread time.Duration
	rho        float64
	dx, dy     int
}

func parseFlags(args []string) (*config, error) {
	c := &config{}
	fs := flag.NewFlagSet("barriersim", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), usage)
		fs.PrintDefaults()
	}
	fs.IntVar(&c.p, "p", 4096, "number of processors")
	fs.IntVar(&c.degree, "degree", 4, "combining tree degree (run, model)")
	fs.DurationVar(&c.sigma, "sigma", 250*time.Microsecond, "arrival time standard deviation (record: of the work time)")
	fs.DurationVar(&c.tc, "tc", 20*time.Microsecond, "counter update time")
	fs.BoolVar(&c.dynamic, "dynamic", false, "enable dynamic placement")
	fs.DurationVar(&c.slack, "slack", 0, "fuzzy barrier slack (0 = plain barrier)")
	fs.IntVar(&c.episodes, "episodes", 200, "measured episodes (sweep: per degree; record: iterations recorded)")
	fs.IntVar(&c.warmup, "warmup", 20, "warm-up episodes")
	fs.Uint64Var(&c.seed, "seed", 1, "PRNG seed")
	fs.BoolVar(&c.showTrace, "trace", false, "print the final episode's counter timeline")
	fs.StringVar(&c.traceFile, "tracefile", "", "replay work times from a trace file (see record) instead of -sigma")
	fs.StringVar(&c.placement, "placement", "", "predictive straggler-placement policy, one of: "+strings.Join(softbarrier.PlacementNames(), ", "))
	fs.IntVar(&c.replan, "replan", 5, "episodes between placement re-plans (with -placement; 0 = every episode)")
	fs.StringVar(&c.tree.kind, "tree", "classic", "tree kind: classic | mcs | ring")
	fs.IntVar(&c.tree.rings, "rings", 2, "number of rings for -tree ring")
	c.engine = cli.AddEngineFlags(fs)
	fs.StringVar(&c.workload, "workload", "normal", "workload to record: normal | systemic | evolving | sor")
	fs.DurationVar(&c.mu, "mu", 10*time.Millisecond, "mean work time (record)")
	fs.DurationVar(&c.spread, "spread", time.Millisecond, "systemic offset spread (record)")
	fs.Float64Var(&c.rho, "rho", 0.9, "evolving workload autocorrelation (record)")
	fs.IntVar(&c.dx, "dx", 60, "SOR rows per processor (record)")
	fs.IntVar(&c.dy, "dy", 210, "SOR y-dimension (record)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments %q (the mode comes first)", fs.Args())
	}
	if c.episodes < 1 {
		return nil, fmt.Errorf("-episodes must be positive, got %d", c.episodes)
	}
	if c.replan < 0 {
		return nil, fmt.Errorf("-replan must be ≥ 0, got %d", c.replan)
	}
	if c.placement != "" && c.tree.kind == "ring" {
		return nil, errors.New("-placement cannot re-place a ring tree (its slots are ring-constrained); use -tree classic or mcs")
	}
	return c, nil
}

// simulate is the run mode: one configuration, its delay statistics and
// the analytic model's estimate.
func simulate(c *config, stdout io.Writer) error {
	var w loadmodel.Generator
	if c.traceFile != "" {
		f, err := os.Open(c.traceFile)
		if err != nil {
			return err
		}
		tr, err := barriersim.ParseTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		c.p = tr.P()
		w = tr
	}

	build, err := c.tree.builder()
	if err != nil {
		return err
	}
	tree := build(c.p, c.degree)

	cfg := barriersim.Config{Tc: c.tc.Seconds(), Dynamic: c.dynamic}
	if w == nil {
		w = loadmodel.IID{N: c.p, Dist: stats.Normal{Sigma: c.sigma.Seconds()}}
	}
	st := tree.ShapeStats()
	printTree := func() {
		fmt.Fprintf(stdout, "tree: %s degree=%d levels=%d counters=%d mean depth=%.2f\n",
			tree.Kind, tree.Degree, tree.Levels, st.Counters, st.MeanDepth)
	}
	printDelay := func(rr barriersim.RunResult) {
		fmt.Fprintf(stdout, "mean sync delay: %v (update %v + contention %v)\n",
			cli.Dur(rr.MeanSync), cli.Dur(rr.MeanUpdate), cli.Dur(rr.MeanContention))
		fmt.Fprintf(stdout, "p95 sync delay:  %v\n", cli.Dur(stats.Percentile(rr.SyncDelays, 95)))
	}

	if c.placement != "" {
		mk, err := cli.Placement(c.placement)
		if err != nil {
			return err
		}
		ctl := loadmodel.NewController(c.replan, c.tc.Seconds(), c.degree, mk())
		pr := barriersim.RunPlanned(build, cfg, w, ctl, c.warmup, c.episodes, c.seed)
		printTree()
		fmt.Fprintf(stdout, "placement: %s, re-planned every %d episodes, %d rebuilds\n",
			c.placement, max(c.replan, 1), pr.Rebuilds)
		fmt.Fprintf(stdout, "workload: %v, %d episodes after %d warm-up\n", w, c.episodes, c.warmup)
		printDelay(pr.RunResult)
		return nil
	}

	it := barriersim.NewIterator(w, c.slack.Seconds(), c.seed)
	sim := barriersim.New(tree, cfg)
	var rec *trace.Recorder
	if c.showTrace {
		rec = &trace.Recorder{Keep: 1}
		sim.SetTracer(rec)
	}
	rr := sim.Run(it, c.warmup, c.episodes)

	printTree()
	if c.traceFile != "" {
		fmt.Fprintf(stdout, "workload: %v from %s, slack=%v, %d episodes after %d warm-up\n",
			w, c.traceFile, c.slack, c.episodes, c.warmup)
	} else {
		fmt.Fprintf(stdout, "workload: σ=%v (%.1f·t_c), slack=%v, %d episodes after %d warm-up\n",
			c.sigma, c.sigma.Seconds()/c.tc.Seconds(), c.slack, c.episodes, c.warmup)
	}
	printDelay(rr)
	fmt.Fprintf(stdout, "last proc depth: %.2f   comm overhead: %.3f   swaps/episode: %.2f\n",
		rr.MeanLastDepth, rr.CommOverhead, rr.MeanSwaps)

	if est, err := model.EstimateDelay(c.params()); err == nil {
		fmt.Fprintf(stdout, "analytic model:  %v\n", cli.Dur(est))
	} else {
		fmt.Fprintf(stdout, "analytic model:  n/a (%v)\n", err)
	}

	if rec != nil {
		if e := rec.Last(); e != nil {
			fmt.Fprintf(stdout, "\nfinal episode timeline (one lane per counter):\n%s\n%s", e.Timeline(100), e.Summary())
		}
	}
	return nil
}

// params is the model configuration the flags describe.
func (c *config) params() model.Params {
	return model.Params{P: c.p, Degree: c.degree, Sigma: c.sigma.Seconds(), Tc: c.tc.Seconds()}
}

// workModel is the model mode: Algorithm 1 step by step for one degree.
func workModel(c *config, stdout io.Writer) error {
	b, err := model.Estimate(c.params())
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Algorithm 1: p=%d, degree=%d, L=%d levels, σ=%v, t_c=%v\n\n", c.p, c.degree, b.Levels, c.sigma, c.tc)
	fmt.Fprintf(stdout, "%8s %10s %14s %14s %14s\n", "subset", "|S_l|", "P_before", "T_arr", "T_rel")
	for l := 0; l < b.Levels; l++ {
		pbs := fmt.Sprintf("%.4f", model.PBefore(c.degree, l, b.Levels))
		if l == b.Levels-1 {
			pbs += "→mid" // Algorithm 1's earliest-subset substitution
		}
		fmt.Fprintf(stdout, "%8s %10d %14s %14v %14v\n",
			fmt.Sprintf("S_%d", l), model.SubsetSize(c.degree, l), pbs,
			cli.Dur(b.SubsetArrival[l]), cli.Dur(b.SubsetRelease[l]))
	}
	fmt.Fprintf(stdout, "%8s %10d %14s %14v %14v\n", "last", 1, "(Eq. 5)",
		cli.Dur(b.LastArrival), cli.Dur(b.LastRelease))
	fmt.Fprintf(stdout, "\nsynchronization delay (Eq. 8): %v", cli.Dur(b.Delay))
	if b.CriticalSubset >= 0 {
		fmt.Fprintf(stdout, "   (critical: subset S_%d)\n", b.CriticalSubset)
	} else {
		fmt.Fprintf(stdout, "   (critical: the last processor's own path)\n")
	}
	return nil
}

// sweepDegrees is the sweep mode: the simulated delay of every candidate
// degree beside the model's estimate, and the optimum of both.
func sweepDegrees(c *config, stdout io.Writer) error {
	build, err := c.tree.builder()
	if err != nil {
		return err
	}
	sigma, tc := c.sigma.Seconds(), c.tc.Seconds()
	cfg := barriersim.Config{Tc: tc}
	sw := barriersim.DegreeSweep(c.engine.Engine(os.Stderr), c.p, build, cfg, stats.Normal{Sigma: sigma}, c.episodes, c.seed)
	estOf := model.EstimateByDegree(c.p, sigma, tc)

	fmt.Fprintf(stdout, "p=%d σ=%v (%.1f·t_c) t_c=%v episodes=%d tree=%s\n\n",
		c.p, c.sigma, sigma/tc, c.tc, c.episodes, c.tree.kind)
	fmt.Fprintf(stdout, "%8s %7s %14s %14s\n", "degree", "levels", "sim delay", "model delay")
	for _, r := range sw {
		est := "      -"
		if v, ok := estOf[r.Degree]; ok {
			est = fmt.Sprintf("%14v", cli.Dur(v))
		}
		fmt.Fprintf(stdout, "%8d %7d %14v %s\n", r.Degree, r.Levels, cli.Dur(r.MeanSync), est)
	}

	best := barriersim.Best(sw)
	estBest := model.EstimateOptimalDegree(c.p, sigma, tc)
	fmt.Fprintf(stdout, "\nsimulated optimum: degree %d (%v)\n", best.Degree, cli.Dur(best.MeanSync))
	fmt.Fprintf(stdout, "model recommends:  degree %d (estimated %v)\n", estBest.Degree, cli.Dur(estBest.Delay))
	if d4, ok := barriersim.DelayOf(sw, 4); ok && best.MeanSync > 0 {
		fmt.Fprintf(stdout, "speedup of optimum over degree 4: %.2f\n", d4/best.MeanSync)
	}
	return nil
}

// record is the record mode: -episodes iterations of the -workload
// generator, written as a trace file.
func record(c *config, stdout io.Writer) error {
	w, err := c.generator()
	if err != nil {
		return err
	}
	tr, err := barriersim.NewTrace(loadmodel.Schedule(w, c.episodes, c.seed))
	if err != nil {
		return err
	}
	return barriersim.WriteTrace(stdout, tr)
}

// generator is the load model record's flags describe.
func (c *config) generator() (loadmodel.Generator, error) {
	work := stats.Normal{Mu: c.mu.Seconds(), Sigma: c.sigma.Seconds()}
	switch c.workload {
	case "normal":
		return loadmodel.IID{N: c.p, Dist: work}, nil
	case "systemic":
		return loadmodel.StaticSkew{
			Base:    loadmodel.IID{N: c.p, Dist: work},
			Offsets: loadmodel.LinearOffsets(c.p, c.spread.Seconds()),
		}, nil
	case "evolving":
		return &loadmodel.Drift{N: c.p, Dist: work, Rho: c.rho, InnovSigma: c.sigma.Seconds() / 4}, nil
	case "sor":
		m := ksr.New56()
		if c.p != m.P() {
			// Scale the machine's rings to the requested size.
			half := c.p / 2
			if half < 2 || c.p%2 != 0 {
				return nil, errors.New("sor workload needs an even processor count ≥ 4")
			}
			m.Rings = []int{half, c.p - half}
		}
		return sor.NewTimingModel(m, c.dx, c.dy), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want normal, systemic, evolving or sor)", c.workload)
}

// treeFlags selects the combining-tree topology (-tree and -rings).
type treeFlags struct {
	kind  string // "classic", "mcs" or "ring"
	rings int    // ring count for kind "ring"
}

// builder returns the TreeBuilder the flags select. The ring builder
// splits p processors over the configured number of rings as evenly as
// possible (earlier rings take the remainder).
func (f treeFlags) builder() (barriersim.TreeBuilder, error) {
	switch f.kind {
	case "classic":
		return topology.NewClassic, nil
	case "mcs":
		return topology.NewMCS, nil
	case "ring":
		rings := f.rings
		if rings <= 0 {
			return nil, fmt.Errorf("-rings must be positive, got %d", rings)
		}
		return func(p, d int) *topology.Tree {
			sizes := make([]int, rings)
			for i := range sizes {
				sizes[i] = p / rings
				if i < p%rings {
					sizes[i]++
				}
			}
			return topology.NewRing(sizes, d)
		}, nil
	}
	return nil, fmt.Errorf("unknown tree kind %q (want classic, mcs or ring)", f.kind)
}
