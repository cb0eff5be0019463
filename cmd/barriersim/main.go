// Command barriersim simulates one barrier configuration and reports its
// synchronization-delay statistics.
//
// Usage:
//
//	barriersim -p 4096 -degree 16 -sigma 0.25ms [-tree mcs] [-dynamic]
//	           [-slack 4ms] [-episodes 200] [-warmup 20] [-tc 20us] [-seed 1]
//	           [-placement ewma] [-replan 5] [-cache DIR] [-workers N]
//
// Durations accept Go syntax (e.g. 250us, 0.25ms). With -cache, the run's
// result is memoized on disk under its full configuration, so repeating a
// configuration is instant; -trace and -tracefile runs bypass the cache
// (the timeline needs a live simulation, and trace files are not hashed).
//
// With -placement, a predictive straggler-placement policy (see
// softbarrier.PlacementNames) observes every episode's arrival lags and,
// every -replan episodes, rebuilds the tree with its laggiest-first
// ranking in the shallowest slots. Placement runs ignore -slack (the
// policy engine drives episodes directly) and bypass the cache.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"softbarrier"
	"softbarrier/internal/barriersim"
	"softbarrier/internal/cli"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/model"
	"softbarrier/internal/stats"
	"softbarrier/internal/sweep"
	"softbarrier/internal/trace"
	"softbarrier/internal/workload"
)

func main() {
	var (
		p        = flag.Int("p", 4096, "number of processors")
		degree   = flag.Int("degree", 4, "combining tree degree")
		sigma    = flag.Duration("sigma", 250*time.Microsecond, "arrival time standard deviation")
		tc       = flag.Duration("tc", 20*time.Microsecond, "counter update time")
		dynamic  = flag.Bool("dynamic", false, "enable dynamic placement")
		slack    = flag.Duration("slack", 0, "fuzzy barrier slack (0 = plain barrier)")
		episodes = flag.Int("episodes", 200, "measured episodes")
		warmup   = flag.Int("warmup", 20, "warm-up episodes")
		seed     = flag.Uint64("seed", 1, "PRNG seed")
		showTr   = flag.Bool("trace", false, "print the final episode's counter timeline")
		traceIn  = flag.String("tracefile", "", "replay work times from a trace file (see cmd/tracegen) instead of -sigma")
		place    = flag.String("placement", "", "predictive straggler-placement policy, one of: "+strings.Join(softbarrier.PlacementNames(), ", "))
		replan   = flag.Int("replan", 5, "episodes between placement re-plans (with -placement)")
		treeF    = cli.AddTreeFlags()
		engF     = cli.AddEngineFlags()
	)
	flag.Parse()

	var w loadmodel.Generator
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tr, err := workload.ParseTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if tr.P() != *p {
			*p = tr.P()
		}
		w = tr
	}

	tree, err := treeF.Build(*p, *degree)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	engine, err := engF.Engine(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := barriersim.Config{Tc: tc.Seconds(), Dynamic: *dynamic}
	if w == nil {
		w = loadmodel.IID{N: *p, Dist: stats.Normal{Sigma: sigma.Seconds()}}
	}

	if *place != "" {
		mk, err := cli.Placement(*place)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		pr := barriersim.RunPlacement(tree, cfg, w, mk(), *replan, *warmup, *episodes, *seed)
		st := tree.ShapeStats()
		fmt.Printf("tree: %s degree=%d levels=%d counters=%d mean depth=%.2f\n",
			tree.Kind, tree.Degree, tree.Levels, st.Counters, st.MeanDepth)
		fmt.Printf("placement: %s, re-planned every %d episodes, %d rebuilds\n",
			*place, *replan, pr.Rebuilds)
		fmt.Printf("workload: %v, %d episodes after %d warm-up\n", w, *episodes, *warmup)
		fmt.Printf("mean sync delay: %v (update %v + contention %v)\n",
			cli.Dur(pr.MeanSync), cli.Dur(pr.MeanUpdate), cli.Dur(pr.MeanContention))
		fmt.Printf("p95 sync delay:  %v\n", cli.Dur(stats.Percentile(pr.SyncDelays, 95)))
		return
	}

	var rec *trace.Recorder
	run := func(int, uint64) barriersim.RunResult {
		it := workload.NewIterator(w, slack.Seconds(), *seed)
		sim := barriersim.New(tree, cfg)
		if *showTr {
			rec = &trace.Recorder{Keep: 1}
			sim.SetTracer(rec)
		}
		return sim.Run(it, *warmup, *episodes)
	}

	var rr barriersim.RunResult
	if engine.Cache != nil && !*showTr && *traceIn == "" {
		// A single-point sweep buys the on-disk memoization: repeating a
		// configuration never re-simulates.
		key := fmt.Sprintf("p=%d d=%d kind=%s cfg=%+v workload=%v slack=%g episodes=%d warmup=%d",
			*p, *degree, tree.Kind, cfg, w, slack.Seconds(), *episodes, *warmup)
		rr = sweep.Run(engine, sweep.Spec{Name: "barriersim", Keys: []string{key}, BaseSeed: *seed}, run)[0]
	} else {
		rr = run(0, *seed)
	}

	st := tree.ShapeStats()
	fmt.Printf("tree: %s degree=%d levels=%d counters=%d mean depth=%.2f\n",
		tree.Kind, tree.Degree, tree.Levels, st.Counters, st.MeanDepth)
	if *traceIn != "" {
		fmt.Printf("workload: %v from %s, slack=%v, %d episodes after %d warm-up\n",
			w, *traceIn, *slack, *episodes, *warmup)
	} else {
		fmt.Printf("workload: σ=%v (%.1f·t_c), slack=%v, %d episodes after %d warm-up\n",
			*sigma, sigma.Seconds()/tc.Seconds(), *slack, *episodes, *warmup)
	}
	fmt.Printf("mean sync delay: %v (update %v + contention %v)\n",
		cli.Dur(rr.MeanSync), cli.Dur(rr.MeanUpdate), cli.Dur(rr.MeanContention))
	fmt.Printf("p95 sync delay:  %v\n", cli.Dur(stats.Percentile(rr.SyncDelays, 95)))
	fmt.Printf("last proc depth: %.2f   comm overhead: %.3f   swaps/episode: %.2f\n",
		rr.MeanLastDepth, rr.CommOverhead, rr.MeanSwaps)

	if est, err := model.EstimateDelay(model.Params{P: *p, Degree: *degree, Sigma: sigma.Seconds(), Tc: tc.Seconds()}); err == nil {
		fmt.Printf("analytic model:  %v\n", cli.Dur(est))
	} else {
		fmt.Printf("analytic model:  n/a (%v)\n", err)
	}

	if rec != nil {
		if e := rec.Last(); e != nil {
			fmt.Printf("\nfinal episode timeline (one lane per counter):\n%s\n%s", e.Timeline(100), e.Summary())
		}
	}
}
