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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"softbarrier/internal/cli"
	"softbarrier/internal/experiments"
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

// run reproduces the chosen experiments and prints their tables to stdout;
// progress and timings go to stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	var (
		only     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		episodes = fs.Int("episodes", 0, "measured episodes per configuration (default: harness default)")
		warmup   = fs.Int("warmup", 0, "warm-up episodes (default: harness default)")
		seed     = fs.Uint64("seed", 0, "base PRNG seed (default: harness default)")
		markdown = fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		jsonOut  = fs.Bool("json", false, "emit tables as JSON (stable format for regression diffing)")
		plot     = fs.Bool("plot", false, "also render ASCII curve plots for figure-style experiments")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		engFlags = cli.AddEngineFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	// Harness defaults apply only to flags the user did not set: detecting
	// explicit flags with Visit lets -seed 0 and -warmup 0 mean what they
	// say instead of being mistaken for "unset".
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	o := experiments.DefaultOptions()
	if set["episodes"] {
		if *episodes <= 0 {
			return usageError{fmt.Sprintf("experiments: -episodes must be positive, got %d", *episodes)}
		}
		o.Episodes = *episodes
	}
	if set["warmup"] {
		if *warmup < 0 {
			return usageError{fmt.Sprintf("experiments: -warmup must be non-negative, got %d", *warmup)}
		}
		o.Warmup = *warmup
	}
	if set["seed"] {
		o.Seed = *seed
	}
	o.Engine = engFlags.Engine(os.Stderr)

	ids := experiments.IDs()
	if *only != "" {
		ids = strings.Split(*only, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		runner, err := experiments.Lookup(id)
		if err != nil {
			return usageError{err.Error()}
		}
		start := time.Now()
		table := runner(o)
		switch {
		case *jsonOut:
			s, err := table.JSON()
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, s)
		case *markdown:
			fmt.Fprintln(stdout, table.Markdown())
		default:
			fmt.Fprintln(stdout, table.String())
		}
		if *plot {
			if spec, ok := experiments.SpecFor(id); ok {
				chart, err := table.Plot(spec, 72, 16)
				if err != nil {
					fmt.Fprintf(os.Stderr, "plot %s: %v\n", id, err)
				} else {
					fmt.Fprintln(stdout, chart)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s took %v]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
