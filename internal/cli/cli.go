// Package cli holds the configuration plumbing shared by the commands: the
// -workers sweep-engine flag of cmd/experiments and cmd/barriersim,
// a throttled progress printer, duration formatting, and the networked
// barrier session flags of cmd/barrierd and examples/netbarrier. Keeping it
// here means each main declares only the flags specific to its own
// question.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/sweep"
)

// EngineFlags carries the shared parallel-sweep configuration.
type EngineFlags struct {
	// Workers is the worker-pool bound; 0 selects all CPUs, 1 runs
	// sequentially. Results are identical either way (internal/sweep).
	Workers int
}

// AddEngineFlags registers -workers on fs.
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.Workers, "workers", 0, "parallel sweep workers (0 = all CPUs, 1 = sequential; results identical)")
	return f
}

// Engine builds the sweep engine the flags describe. Progress is reported
// to w (nil disables reporting) for sweeps that run long enough to matter.
func (f *EngineFlags) Engine(w io.Writer) *sweep.Engine {
	e := &sweep.Engine{Workers: f.Workers}
	if w != nil {
		e.Report = ProgressPrinter(w)
	}
	return e
}

// ProgressPrinter returns a sweep progress callback that prints points
// done / total with an ETA to w. It stays silent for sweeps that finish
// within two seconds and then throttles itself to one line per second, so
// fast grids produce no output at all.
func ProgressPrinter(w io.Writer) func(sweep.Progress) {
	var last time.Duration
	started := false
	return func(p sweep.Progress) {
		if p.Elapsed < 2*time.Second {
			return
		}
		if started && p.Done < p.Total && p.Elapsed-last < time.Second {
			return
		}
		started = true
		last = p.Elapsed
		line := fmt.Sprintf("sweep %d/%d points, elapsed %s", p.Done, p.Total, p.Elapsed.Round(100*time.Millisecond))
		if p.Remaining > 0 {
			line += fmt.Sprintf(", eta %s", p.Remaining.Round(100*time.Millisecond))
		}
		fmt.Fprintln(w, line)
	}
}

// Dur renders a duration in seconds as a time.Duration rounded for
// display, the formatting shared by the simulation commands.
func Dur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second)).Round(100 * time.Nanosecond)
}

// NetFlags carries the networked-barrier session configuration shared by
// cmd/barrierd and examples/netbarrier, mirroring netbarrier.Options
// field for field where a flag makes sense. Where the daemon listens and
// how it joins a fleet are cmd/barrierd's own flags.
type NetFlags struct {
	// Watchdog is the per-session stall deadline; 0 disables detection.
	Watchdog time.Duration
	// Replan is how many episodes pass between planner re-evaluations.
	Replan int
	// Elastic lets session membership change between episodes: late
	// joiners are parked and admitted at the next boundary, leavers shrink
	// the cohort instead of stalling it.
	Elastic bool
	// Collective names a built-in reduction op (softbarrier.OpByName);
	// "" serves plain barrier sessions.
	Collective string
	// Placement names a predictive straggler-placement policy
	// (softbarrier.PlacementByName); "" (or "static") keeps the natural
	// placement.
	Placement string
	// Tc is the model's counter-update cost in seconds; 0 = the paper's 20µs.
	Tc float64
	// Sigma is the arrival spread assumed before any episode is measured.
	Sigma float64
}

// AddNetFlags registers the session flags on fs.
func AddNetFlags(fs *flag.FlagSet) *NetFlags {
	f := &NetFlags{}
	fs.DurationVar(&f.Watchdog, "watchdog", 10*time.Second, "per-session stall deadline (0 disables stall detection)")
	fs.IntVar(&f.Replan, "replan", 10, "episodes between tree-degree re-plans (0 = every episode)")
	fs.BoolVar(&f.Elastic, "elastic", false, "elastic client sessions: admit joins and absorb leaves at episode boundaries (inter-shard sessions stay fixed)")
	fs.Float64Var(&f.Tc, "tc", 0, "model counter-update cost in seconds (0 = 20µs)")
	fs.Float64Var(&f.Sigma, "sigma", 0, "assumed arrival spread in seconds before measurement")
	fs.StringVar(&f.Collective, "collective", "",
		"serve collective sessions folding contributions with this op, one of: "+strings.Join(softbarrier.OpNames(), ", "))
	fs.StringVar(&f.Placement, "placement", "",
		"predictive straggler-placement policy (reactive moves consistently slow clients to the root), one of: "+strings.Join(softbarrier.PlacementNames(), ", "))
	return f
}

// Placement resolves a policy name to its constructor, erroring on an
// unknown name with the valid ones listed. "" resolves to no policy
// (nil, nil): the natural placement.
func Placement(name string) (func() softbarrier.PlacementPolicy, error) {
	if name == "" {
		return nil, nil
	}
	mk, ok := softbarrier.PlacementByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown placement policy %q (have: %s)", name, strings.Join(softbarrier.PlacementNames(), ", "))
	}
	return mk, nil
}

// Options maps the flags onto a netbarrier server configuration. Logf and
// Transport are left nil for the caller to wire. It errors on a negative
// or NaN -tc or -sigma, a negative -replan or -watchdog, and an unknown
// -collective op name, listing the valid ones.
func (f *NetFlags) Options() (netbarrier.Options, error) {
	switch {
	case f.Replan < 0:
		return netbarrier.Options{}, fmt.Errorf("-replan must be ≥ 0, got %d", f.Replan)
	case f.Watchdog < 0:
		return netbarrier.Options{}, fmt.Errorf("-watchdog must be ≥ 0, got %v", f.Watchdog)
	case !(f.Tc >= 0):
		return netbarrier.Options{}, fmt.Errorf("-tc must be ≥ 0 seconds, got %g", f.Tc)
	case !(f.Sigma >= 0):
		return netbarrier.Options{}, fmt.Errorf("-sigma must be ≥ 0 seconds, got %g", f.Sigma)
	}
	opt := netbarrier.Options{
		Watchdog:     f.Watchdog,
		ReplanEvery:  f.Replan,
		Elastic:      f.Elastic,
		Tc:           f.Tc,
		InitialSigma: f.Sigma,
	}
	if f.Collective != "" {
		op, ok := softbarrier.OpByName(f.Collective)
		if !ok {
			return opt, fmt.Errorf("unknown collective op %q (have: %s)", f.Collective, strings.Join(softbarrier.OpNames(), ", "))
		}
		opt.Op = &op
	}
	mk, err := Placement(f.Placement)
	if err != nil {
		return opt, err
	}
	opt.Placement = mk
	return opt, nil
}
