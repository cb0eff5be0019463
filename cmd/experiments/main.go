// Command experiments reproduces the paper's tables and figures and prints
// them as text or markdown.
//
// Usage:
//
//	experiments [-run FIG3,FIG8] [-episodes 100] [-warmup 20] [-seed 1995]
//	            [-workers N] [-markdown | -json]
//
// With no -run it reproduces everything in presentation order. Each
// experiment's parameter grid fans out over -workers parallel workers
// (default: all CPUs); tables are bit-identical for every worker count.
// The output of -json at the defaults is checked in as
// internal/experiments/testdata/experiments.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"softbarrier/internal/cli"
	"softbarrier/internal/experiments"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment IDs (default: all)")
		episodes = flag.Int("episodes", 0, "measured episodes per configuration (default: harness default)")
		warmup   = flag.Int("warmup", 0, "warm-up episodes (default: harness default)")
		seed     = flag.Uint64("seed", 0, "base PRNG seed (default: harness default)")
		markdown = flag.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		jsonOut  = flag.Bool("json", false, "emit tables as JSON (stable format for regression diffing)")
		plot     = flag.Bool("plot", false, "also render ASCII curve plots for figure-style experiments")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		engFlags = cli.AddEngineFlags(flag.CommandLine)
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	// Harness defaults apply only to flags the user did not set: detecting
	// explicit flags with Visit lets -seed 0 and -warmup 0 mean what they
	// say instead of being mistaken for "unset".
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	o := experiments.DefaultOptions()
	if set["episodes"] {
		if *episodes <= 0 {
			fmt.Fprintf(os.Stderr, "experiments: -episodes must be positive, got %d\n", *episodes)
			os.Exit(2)
		}
		o.Episodes = *episodes
	}
	if set["warmup"] {
		if *warmup < 0 {
			fmt.Fprintf(os.Stderr, "experiments: -warmup must be non-negative, got %d\n", *warmup)
			os.Exit(2)
		}
		o.Warmup = *warmup
	}
	if set["seed"] {
		o.Seed = *seed
	}
	o.Engine = engFlags.Engine(os.Stderr)

	ids := experiments.IDs()
	if *run != "" {
		ids = strings.Split(*run, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, err := experiments.Lookup(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		start := time.Now()
		table := runner(o)
		switch {
		case *jsonOut:
			s, err := table.JSON()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(s)
		case *markdown:
			fmt.Println(table.Markdown())
		default:
			fmt.Println(table.String())
		}
		if *plot {
			if spec, ok := experiments.SpecFor(id); ok {
				chart, err := table.Plot(spec, 72, 16)
				if err != nil {
					fmt.Fprintf(os.Stderr, "plot %s: %v\n", id, err)
				} else {
					fmt.Println(chart)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
}
