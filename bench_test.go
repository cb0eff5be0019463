package softbarrier

// The benchmark harness regenerates every table and figure of the paper:
// one Benchmark per artifact, each running the corresponding experiment at
// reduced replication per iteration (run cmd/experiments for full-fidelity
// tables) and reporting the headline quantity via b.ReportMetric. A final
// set of micro-benchmarks measures the runtime barrier implementations
// themselves.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"softbarrier/internal/experiments"
)

// benchOpts keeps per-iteration cost manageable.
func benchOpts() experiments.Options {
	return experiments.Options{Episodes: 10, Warmup: 4, Seed: 1995}
}

// runExperiment executes one experiment runner b.N times.
func runExperiment(b *testing.B, id string) *experiments.Table {
	runner, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		tab = runner(benchOpts())
	}
	return tab
}

// cell parses a leading float from a table cell like "16 (1.47)".
func cell(b *testing.B, s string) float64 {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("unparseable cell %q", s)
	}
	return v
}

func BenchmarkEq1(b *testing.B) {
	tab := runExperiment(b, "EQ1")
	// Headline: delay of degree 4 at σ=0 for 4K processors, in ms.
	b.ReportMetric(cell(b, tab.Rows[1][2]), "ms-delay-d4")
}

func BenchmarkFig2(b *testing.B) {
	tab := runExperiment(b, "FIG2")
	b.ReportMetric(cell(b, tab.Rows[1][4]), "ms-total-d4")
	b.ReportMetric(cell(b, tab.Rows[5][4]), "ms-total-d64")
}

func BenchmarkFig3(b *testing.B) {
	tab := runExperiment(b, "FIG3")
	// Headline: optimal degree for 4K processors at the largest σ.
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[len(last)-1]), "opt-degree-4K-max-sigma")
}

func BenchmarkFig4(b *testing.B) {
	tab := runExperiment(b, "FIG4")
	// Headline: the accuracy note carries the mean est/opt delay ratio.
	var ratio float64
	if _, err := fmt.Sscanf(tab.Notes[0], "mean simulated delay of estimated degree / optimal degree = %f", &ratio); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(ratio, "est/opt-delay-ratio")
}

func BenchmarkFig5(b *testing.B) {
	tab := runExperiment(b, "FIG5")
	b.ReportMetric(cell(b, tab.Rows[0][1]), "rank-corr-slack0")
	b.ReportMetric(cell(b, tab.Rows[len(tab.Rows)-1][1]), "rank-corr-slack16ms")
}

func BenchmarkFig8(b *testing.B) {
	tab := runExperiment(b, "FIG8")
	// Rows: depth/speedup/comm for degree 4, then degree 16.
	lastCol := len(tab.Header) - 1
	b.ReportMetric(cell(b, tab.Rows[1][lastCol]), "speedup-d4-slack16ms")
	b.ReportMetric(cell(b, tab.Rows[0][lastCol]), "depth-d4-slack16ms")
}

func BenchmarkFig9(b *testing.B) {
	tab := runExperiment(b, "FIG9")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[1]), "ms-d4-4K-sigma0.5ms")
	b.ReportMetric(cell(b, last[2]), "ms-opt-4K-sigma0.5ms")
}

func BenchmarkFig10(b *testing.B) {
	tab := runExperiment(b, "FIG10")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[3]), "speedup-4K")
}

func BenchmarkFig11(b *testing.B) {
	tab := runExperiment(b, "FIG11")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[3]), "speedup-4K-d16")
}

func BenchmarkFig12(b *testing.B) {
	tab := runExperiment(b, "FIG12")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[3]), "opt-degree-largest-dy")
	b.ReportMetric(cell(b, last[4]), "speedup-largest-dy")
}

func BenchmarkFig13(b *testing.B) {
	tab := runExperiment(b, "FIG13")
	lastCol := len(tab.Header) - 1
	b.ReportMetric(cell(b, tab.Rows[1][lastCol]), "speedup-d2-max-slack")
}

func BenchmarkExt1(b *testing.B) {
	tab := runExperiment(b, "EXT1")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[2]), "ms-tree-opt-max-sigma")
	b.ReportMetric(cell(b, last[3]), "ms-dissemination-max-sigma")
}

func BenchmarkExt2(b *testing.B) {
	tab := runExperiment(b, "EXT2")
	b.ReportMetric(cell(b, tab.Rows[0][1]), "us-idle-min-slack")
	b.ReportMetric(cell(b, tab.Rows[len(tab.Rows)-1][1]), "us-idle-max-slack")
}

func BenchmarkExt3(b *testing.B) {
	tab := runExperiment(b, "EXT3")
	b.ReportMetric(cell(b, tab.Rows[1][5]), "adaptive-degree-after-shift")
}

func BenchmarkExt4(b *testing.B) {
	tab := runExperiment(b, "EXT4")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[1]), "opt-degree-normal-25tc")
	b.ReportMetric(cell(b, last[3]), "opt-degree-exponential-25tc")
}

func BenchmarkExt5(b *testing.B) {
	tab := runExperiment(b, "EXT5")
	b.ReportMetric(cell(b, tab.Rows[0][1]), "opt-degree-ideal-lock-sigma0")
	b.ReportMetric(cell(b, tab.Rows[len(tab.Rows)-1][1]), "opt-degree-degraded-lock-sigma0")
}

func BenchmarkExt6(b *testing.B) {
	tab := runExperiment(b, "EXT6")
	b.ReportMetric(cell(b, tab.Rows[0][3]), "speedup-1088-d4")
}

func BenchmarkExt7(b *testing.B) {
	tab := runExperiment(b, "EXT7")
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cell(b, last[1]), "us-queue-56")
	b.ReportMetric(cell(b, last[2]), "us-tas-56")
}

func BenchmarkExt8(b *testing.B) {
	tab := runExperiment(b, "EXT8")
	b.ReportMetric(cell(b, tab.Rows[0][4]), "flat-max-link-util")
	b.ReportMetric(cell(b, tab.Rows[2][4]), "tree-d4-max-link-util")
}

// benchBarrier drives p goroutines through b.N episodes of bar.
func benchBarrier(b *testing.B, bar Barrier, p int) {
	b.ReportAllocs()
	var wg sync.WaitGroup
	wg.Add(p)
	b.ResetTimer()
	for id := 0; id < p; id++ {
		go func(id int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				bar.Wait(id)
			}
		}(id)
	}
	wg.Wait()
}

// BenchmarkWaiterPolicies compares the waiter's wait policies on the two
// barriers where the policy choice matters most — the central barrier
// (every participant parks on one gate) and the combining tree (gate
// release after a counter ascent) — at P well below, near, and above
// GOMAXPROCS. "spin" busy-polls long enough that episodes at these scales
// never park; "park" disables spinning and yields straight to the channel
// park; "default" is the shipped spin→yield→park ramp.
func BenchmarkWaiterPolicies(b *testing.B) {
	policies := []struct {
		name   string
		policy WaitPolicy
	}{
		{"default", DefaultWaitPolicy()},
		{"spin", WaitPolicy{Spin: 1 << 16, Yield: 1 << 10}},
		{"park", WaitPolicy{Spin: 0, Yield: 0}},
	}
	for _, p := range []int{4, 16, 64} {
		for _, pol := range policies {
			p, pol := p, pol
			b.Run(fmt.Sprintf("central/%s/p=%d", pol.name, p), func(b *testing.B) {
				benchBarrier(b, NewCentral(p, WithWaitPolicy(pol.policy)), p)
			})
			b.Run(fmt.Sprintf("tree-d4/%s/p=%d", pol.name, p), func(b *testing.B) {
				benchBarrier(b, NewCombiningTree(p, 4, WithWaitPolicy(pol.policy)), p)
			})
		}
	}
}

// BenchmarkRuntimeBarriers measures one full episode of each runtime
// barrier implementation at several participant counts. Absolute values
// reflect the Go scheduler on this host, not the paper's KSR1.
func BenchmarkRuntimeBarriers(b *testing.B) {
	for _, p := range []int{2, 8, 32} {
		p := p
		b.Run(fmt.Sprintf("central/p=%d", p), func(b *testing.B) { benchBarrier(b, NewCentral(p), p) })
		b.Run(fmt.Sprintf("tree-d4/p=%d", p), func(b *testing.B) { benchBarrier(b, NewCombiningTree(p, 4), p) })
		b.Run(fmt.Sprintf("mcs-d4/p=%d", p), func(b *testing.B) { benchBarrier(b, NewMCSTree(p, 4), p) })
		b.Run(fmt.Sprintf("dynamic-d4/p=%d", p), func(b *testing.B) { benchBarrier(b, NewDynamic(p, 4), p) })
		b.Run(fmt.Sprintf("adaptive/p=%d", p), func(b *testing.B) { benchBarrier(b, NewReconfigurable(p, ReconfigConfig{ReplanEvery: 64}), p) })
		b.Run(fmt.Sprintf("dissemination/p=%d", p), func(b *testing.B) { benchBarrier(b, NewDissemination(p), p) })
		b.Run(fmt.Sprintf("tournament/p=%d", p), func(b *testing.B) { benchBarrier(b, NewTournament(p), p) })
	}
}

// BenchmarkAscent measures the paper's unit, the counter update t_c, on
// the runtime: one goroutine drives every arrival of a 32-participant
// episode and then every await, so arrival order is an input and the
// scheduler adds nothing, and the episode's time is divided by its
// counter visits (one per participant plus one per completed non-root
// counter). "plain" is the lock-free ascent; "greedy" carries a sum-u64
// contribution, put in a cell before each add and folded by each counter's
// completer; "watched" is the plain ascent plus the watchdog's shared
// arrival counter, one locked add per arrival. ns/last is the critical
// path alone: the last arrival's ascent, its completers' folds and the
// release, timed (one clock read included) in a second pass so that the
// clock stays out of ns/visit.
func BenchmarkAscent(b *testing.B) {
	const p = 32
	in, out := make([]byte, 8), make([]byte, 8)
	for _, k := range treeKinds {
		for _, c := range []struct {
			name string
			opts []Option
		}{
			{"plain", nil},
			{"greedy", []Option{WithCollective(OpSumUint64())}},
			{"watched", []Option{WithWatchdog(time.Hour)}},
		} {
			greedy := c.name == "greedy"
			b.Run(k.name+"/"+c.name, func(b *testing.B) {
				bar := k.mk(p, c.opts...)
				defer bar.Close()
				arrive := func(from, to int) {
					for id := from; id < to; id++ {
						if !greedy {
							bar.Arrive(id)
						} else if err := bar.ArriveReduce(id, in); err != nil {
							b.Fatal(err)
						}
					}
				}
				await := func() {
					for id := 0; id < p; id++ {
						if !greedy {
							bar.Await(id)
						} else if err := bar.AwaitResult(id, out); err != nil {
							b.Fatal(err)
						}
					}
				}
				for i := 0; i < 40; i++ { // past the first replans and migrations
					arrive(0, p)
					await()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					arrive(0, p)
					await()
				}
				visits := p + len(coreOf(bar).state.Load().counters) - 1
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*visits), "ns/visit")
				b.StopTimer()
				var last time.Duration
				for i := 0; i < b.N; i++ {
					arrive(0, p-1)
					t0 := time.Now()
					arrive(p-1, p)
					last += time.Since(t0)
					await()
				}
				b.ReportMetric(float64(last.Nanoseconds())/float64(b.N), "ns/last")
			})
		}
	}
}

// coreOf returns the combining-tree core a tree barrier kind embeds.
func coreOf(b fuzzyCollective) *treeCore {
	switch b := b.(type) {
	case *TreeBarrier:
		return &b.treeCore
	case *DynamicBarrier:
		return &b.treeCore
	case *ReconfigurableBarrier:
		return &b.treeCore
	}
	panic("not a tree barrier")
}
