package cli

import (
	"flag"
	"strings"
	"testing"
	"time"

	"softbarrier/internal/sweep"
)

func TestEngineFlags(t *testing.T) {
	f := &EngineFlags{Workers: 3}
	if e := f.Engine(nil); e.Workers != 3 || e.Report != nil {
		t.Fatalf("engine = %+v", e)
	}
}

func TestProgressPrinterThrottles(t *testing.T) {
	var b strings.Builder
	report := ProgressPrinter(&b)
	// Below the 2s threshold: silent.
	report(sweep.Progress{Done: 1, Total: 10, Elapsed: 100 * time.Millisecond})
	if b.Len() != 0 {
		t.Fatalf("printed too early: %q", b.String())
	}
	report(sweep.Progress{Done: 5, Total: 10, Elapsed: 3 * time.Second, Remaining: 3 * time.Second})
	out := b.String()
	if !strings.Contains(out, "5/10") || !strings.Contains(out, "eta") {
		t.Fatalf("progress line %q", out)
	}
	// Within a second of the last line: throttled.
	n := b.Len()
	report(sweep.Progress{Done: 6, Total: 10, Elapsed: 3*time.Second + 200*time.Millisecond})
	if b.Len() != n {
		t.Fatalf("throttle failed: %q", b.String())
	}
	// Completion always prints.
	report(sweep.Progress{Done: 10, Total: 10, Elapsed: 3*time.Second + 300*time.Millisecond})
	if !strings.Contains(b.String(), "10/10") {
		t.Fatalf("final line missing: %q", b.String())
	}
}

func TestDur(t *testing.T) {
	if d := Dur(0.0005); d != 500*time.Microsecond {
		t.Fatalf("Dur(0.0005) = %v", d)
	}
}

func TestNetFlagsOptions(t *testing.T) {
	fs := flag.NewFlagSet("net", flag.ContinueOnError)
	f := AddNetFlags(fs)
	if err := fs.Parse([]string{"-watchdog", "3s", "-replan", "5", "-tc", "1e-5", "-sigma", "2e-4"}); err != nil {
		t.Fatal(err)
	}
	if flag.Lookup("watchdog") != nil {
		t.Fatal("AddNetFlags registered on the default FlagSet")
	}
	opt, err := f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Watchdog != 3*time.Second || opt.ReplanEvery != 5 ||
		opt.Tc != 1e-5 || opt.InitialSigma != 2e-4 {
		t.Fatalf("options = %+v do not mirror flags %+v", opt, f)
	}
	if opt.Logf != nil {
		t.Fatal("Options must leave Logf for the caller to wire")
	}
	if opt.Op != nil {
		t.Fatal("no -collective flag must leave Op nil")
	}

	f.Collective = "sum-u64"
	opt, err = f.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Op == nil || opt.Op.Name != "sum-u64" {
		t.Fatalf("collective flag not resolved: %+v", opt.Op)
	}

	f.Collective = "no-such-op"
	if _, err = f.Options(); err == nil {
		t.Fatal("unknown collective op accepted")
	}
}

// TestNetFlagsRejectNegativeModelInputs: each of these flags used to reach
// a session constructor that panics on it, under the server's lock, except
// -watchdog, whose negative value turned stall detection off unannounced.
func TestNetFlagsRejectNegativeModelInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-sigma", "-1e-3"}, {"-sigma", "NaN"}, {"-tc", "-1"}, {"-tc", "NaN"}, {"-replan", "-1"},
		{"-watchdog", "-1s"},
	} {
		fs := flag.NewFlagSet("net", flag.ContinueOnError)
		f := AddNetFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Options(); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%q: got error %v, want one naming %s", args, err, args[0])
		}
	}
}
