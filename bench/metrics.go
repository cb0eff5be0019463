package main

import (
	"math"
	"slices"

	"softbarrier/internal/stats"
)

// metricDef names one metric. The two tables below are the benchmark's
// vocabulary: BENCHMARK.json repeats them (a test keeps the two in step)
// and every later performance claim in this repository is stated as one
// of these names on one of the workload names in workloads.go.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the barrier sees. Every workload reports all
// six from an untraced run. README.md derives the bounds.
var endToEnd = []metricDef{
	{"episode_p50_us", "us", "lower", 0.25},
	{"sync_delay_p50_us", "us", "lower", 0.25},
	{"barrier_share", "fraction", "lower", 0.10},
	{"cpu_us_per_episode", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what a traced run (-trace) reports: spans around the calls
// into each layer, OS counters of the barrierd child, and the ladder
// probes. A metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{Name: "softbarrier.tree_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "softbarrier.dynamic_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "softbarrier.reconfig_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "runtime.wait_goroutines_p50_us", Unit: "us", Better: "lower"},
	{Name: "runtime.allocs_per_episode", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_episode", Unit: "B", Better: "lower"},
	{Name: "loadmodel.schedule_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "loadgen.compute_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "loadgen.schedule_lag_p50_us", Unit: "us", Better: "lower"},
	{Name: "netbarrier.client_arrive_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "netbarrier.client_await_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "wire.codec_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "wire.frames_per_episode", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_episode", Unit: "B", Better: "lower"},
	{Name: "memnet.pipe_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "tcp.pipe_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "netbarrier.session_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "shardbarrier.hop_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "barrierd.cpu_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "loadgen.cpu_us_per_episode", Unit: "us", Better: "lower"},
	{Name: "barrierd.read_syscalls_per_episode", Unit: "count", Better: "lower"},
	{Name: "barrierd.write_syscalls_per_episode", Unit: "count", Better: "lower"},
	{Name: "barrierd.ctx_switches_per_episode", Unit: "count", Better: "lower"},
	{Name: "barrierd.spawn_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.episodes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.episode_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.sync_delay_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.trace_overhead", Unit: "fraction", Better: "lower"},
	{Name: "loadgen.span_coverage", Unit: "fraction", Better: "higher"},
	{Name: "loadgen.self_us_per_episode", Unit: "us", Better: "lower"},
}

// value is one measured metric: the number, and how many samples it is a
// statistic of (1 for counters read once).
type value struct {
	V float64
	N int
}

type values map[string]value

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule on a sorted copy: the smallest sample with at least q of the
// samples at or below it. It is 0 for no samples.
func percentile[T int64 | uint32 | float32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return float64(s[max(int(math.Ceil(q*float64(len(s))))-1, 0)])
}

// median is the 0.5 quantile, averaging the middle pair of an even count
// so that two-run set medians in -selfcheck sit between the runs.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// quartileSpread is (Q3 − Q1) / median with the quartiles of Python's
// statistics.quantiles(xs, n=4) (exclusive method), the spread the
// acceptance procedure in README.md is stated in.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / m
}
