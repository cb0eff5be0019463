package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
)

// A run is fixed work, not fixed time: warmRounds rounds that are
// discarded, then R timed rounds of N steps, each behind a group of set-up
// cycles. N is a constant of the workload, sized for about a quarter of a
// second on the reference host, and R is roundsPerSecond × the -seconds
// flag, so a parent commit and a change do identical work. A traced run
// does a quarter of the steps per round and alternates untraced and traced
// rounds, which gives the tracing overhead from one process.
const (
	warmRounds      = 4
	roundsPerSecond = 4
	cpuWindows      = 8 // CPU readings per round
)

// roundBuf holds one round's per-step samples. It is reused from round to
// round and is small next to the system under test, so that the garbage
// collector paces itself on the system's heap and peak RSS is the system's.
type roundBuf struct {
	period  []uint32  // per step: this step's start → the next one's, ns
	sync    []uint32  // per episode: sync delay, ns
	share   []float32 // per step: barrier share
	starts  []int64   // each step's start, then the round's end
	barrier []int64   // each step's barrier time
	cpu     []int64   // the CPU meter at each window's start, then at the round's end
}

func newRoundBuf(n, perStep int) *roundBuf {
	return &roundBuf{
		period:  make([]uint32, n),
		sync:    make([]uint32, 0, n*perStep),
		share:   make([]float32, n),
		starts:  make([]int64, n+1),
		barrier: make([]int64, n),
		cpu:     make([]int64, 0, cpuWindows+1),
	}
}

// roundStats is what one timed round measured.
type roundStats struct {
	periodP50, periodP99 float64 // ns per step
	syncP50, syncP99     float64 // ns
	share                float64 // median barrier share
	cpu                  float64 // ns per episode in the window that used least
	wall                 int64   // ns
}

// timeRound prepares and drives round r of n steps, checks it, and — given
// a buffer; a warm-up round has none — returns its statistics. passed is
// the episodes that passed their output checks; an error means the system
// is beyond use.
func timeRound(inst instance, r, n, perStep int, buf *roundBuf, tr *tracer) (rs roundStats, passed int, err error) {
	if err := inst.round(r, n); err != nil {
		return rs, 0, err
	}
	var st step
	win := (n + cpuWindows - 1) / cpuWindows
	if buf != nil {
		buf.sync, buf.cpu = buf.sync[:0], buf.cpu[:0]
	}
	for k := 0; k < n; k++ {
		if buf != nil && k%win == 0 {
			u, err := readCPU(inst)
			if err != nil {
				return rs, passed, err
			}
			buf.cpu = append(buf.cpu, u.cpu())
		}
		if err := inst.step(&st, tr); err != nil {
			return rs, passed, err
		}
		passed += perStep - st.failed
		if buf == nil {
			continue
		}
		buf.starts[k], buf.barrier[k] = st.start, st.barrier
		for _, d := range st.sync[:perStep] {
			buf.sync = append(buf.sync, uint32(d))
		}
	}
	if err := inst.check(); err != nil || buf == nil {
		return rs, passed, err
	}
	// A step's period runs to the next step's start, so it includes the
	// driver's own checking and bookkeeping; the last one runs to here.
	buf.starts[n] = now()
	tr.end(buf.starts[n])
	u, err := readCPU(inst)
	if err != nil {
		return rs, passed, err
	}
	buf.cpu = append(buf.cpu, u.cpu())
	cpu := math.Inf(1)
	for i := 1; i < len(buf.cpu); i++ {
		steps := min(i*win, n) - (i-1)*win
		cpu = min(cpu, float64(buf.cpu[i]-buf.cpu[i-1])/float64(steps*perStep))
	}
	for k := 0; k < n; k++ {
		period := buf.starts[k+1] - buf.starts[k]
		buf.period[k] = uint32(period)
		buf.share[k] = float32(float64(buf.barrier[k]) / float64(period))
	}
	return roundStats{
		periodP50: percentile(buf.period, 0.5), periodP99: percentile(buf.period, 0.99),
		syncP50: percentile(buf.sync, 0.5), syncP99: percentile(buf.sync, 0.99),
		share: percentile(buf.share, 0.5),
		cpu:   cpu,
		wall:  buf.starts[n] - buf.starts[0],
	}, passed, nil
}

// usage is process counters: a reading, or a sum of differences of readings.
type usage struct {
	cpuSelf, cpuChild int64  // user+system, ns; this process's less its idle spinning
	syscr, syscw      uint64 // the child's read and write system calls
	mallocs, bytes    uint64 // this process's heap allocations
}

// cpu is what cpu_us_per_episode is made of: the CPU time of this process
// and the barrierd child, less the time the driver spun idle in scheduled
// busy-waits, which stands for the members' work and not the barrier's.
func (u usage) cpu() int64 { return u.cpuSelf + u.cpuChild }

// readCPU reads the CPU counters of this process and of the barrierd
// child, if the instance has one.
func readCPU(inst instance) (u usage, err error) {
	if u.cpuSelf, err = cpuNs(0); err != nil {
		return u, err
	}
	idle, _ := inst.loadgenNs()
	u.cpuSelf -= idle
	if d := inst.host(); d != nil {
		u.cpuChild, err = cpuNs(d.pid())
	}
	return u, err
}

// readUsage reads every counter. The heap counters stop the world, so
// only a traced run's untraced rounds ask for them.
func readUsage(inst instance, heap bool) (usage, error) {
	u, err := readCPU(inst)
	if err != nil {
		return u, err
	}
	if d := inst.host(); d != nil {
		if u.syscr, u.syscw, err = ioCalls(d.pid()); err != nil {
			return u, err
		}
	}
	if heap {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		u.mallocs, u.bytes = m.Mallocs, m.TotalAlloc
	}
	return u, nil
}

func (u *usage) addDelta(from, to usage) {
	u.cpuSelf += to.cpuSelf - from.cpuSelf
	u.cpuChild += to.cpuChild - from.cpuChild
	u.syscr += to.syscr - from.syscr
	u.syscw += to.syscw - from.syscw
	u.mallocs += to.mallocs - from.mallocs
	u.bytes += to.bytes - from.bytes
}

// outcome is everything one run of one workload produced.
type outcome struct {
	attempted, failed int
	err               error // what put the system beyond use, if anything did
	rounds, steps     int
	e2e, layers       values
}

// perRound is the timed rounds' measurements, one entry a round.
type perRound struct {
	periodP50, periodP99, syncP50, syncP99, share []float64
	cpu                                           []float64 // user+system ns per episode, less idle spinning
	wall                                          int64
}

func (p *perRound) add(rs roundStats) {
	p.periodP50 = append(p.periodP50, rs.periodP50)
	p.periodP99 = append(p.periodP99, rs.periodP99)
	p.syncP50 = append(p.syncP50, rs.syncP50)
	p.syncP99 = append(p.syncP99, rs.syncP99)
	p.share = append(p.share, rs.share)
	p.cpu = append(p.cpu, rs.cpu)
	p.wall += rs.wall
}

// quietest folds the rounds of a run into the run's number: their
// minimum. Pinned to one CPU (run.sh) every workload is in effect
// single-threaded, and what is left of the host's noise comes in
// stretches: a neighbour on the core slows whole rounds by 20–30% for
// seconds at a time. The rounds' median then moves with how many were hit,
// while the quietest round reads the same as long as a quarter of a second
// of the run was left alone (README.md, "How the bounds were derived").
func quietest(rounds []float64) float64 { return slices.Min(rounds) }

// setupCycles times count fresh cycles of nothing → first verified
// release (construct or spawn, listen, dial and join every member, one
// checked episode), tearing each down after the clock stops. It returns
// the seconds each took and, on a daemon workload, the milliseconds from
// exec to the daemon's listening line.
func setupCycles(w *workload, e *env, count int) (secs, spawnMs []float64, passed int, err error) {
	for c := 0; c < count; c++ {
		t0 := now()
		inst, err := w.open(e)
		if err != nil {
			return nil, nil, passed, fmt.Errorf("set-up cycle: %w", err)
		}
		_, ok, err := timeRound(inst, 0, 1, w.perStep, nil, nil)
		t1 := now()
		if d := inst.host(); d != nil {
			spawnMs = append(spawnMs, d.spawn.Seconds()*1e3)
		}
		inst.close()
		if err != nil {
			return nil, nil, passed, fmt.Errorf("set-up cycle: %w", err)
		}
		secs = append(secs, float64(t1-t0)/1e9)
		passed += ok
	}
	return secs, spawnMs, passed, nil
}

// runWorkload performs one run. A non-nil error means the run could not
// be made at all; a system that failed under test is reported in the
// outcome, with every episode not checked counted as failed.
func runWorkload(w *workload, e *env, rounds int, traced bool, traceFile string) (*outcome, error) {
	if w.daemon && e.barrierd == "" {
		bin, err := buildBarrierd()
		if err != nil {
			return nil, err
		}
		e.barrierd = bin
	}
	// The set-up cycles are spread over the run, a group before each timed
	// round, so that they meet the same host as the rounds do.
	n, cycles := w.steps, max(w.cycles/rounds, 1)
	if traced {
		n, cycles = max(w.steps/4, 1), 1 // a traced run does not report setup_s
	}
	out := &outcome{rounds: rounds, steps: n}
	planned := (rounds*cycles + (warmRounds+rounds)*n) * w.perStep
	passed := 0
	fail := func(err error) (*outcome, error) {
		out.err = err
		out.attempted, out.failed = planned, planned-passed
		return out, nil
	}

	inst, err := w.open(e)
	if err != nil {
		return fail(err)
	}
	open := true
	var ctxSwitches int64
	closeInst := func() {
		if open {
			ctxSwitches = inst.close()
			open = false
		}
	}
	defer closeInst()
	pid := 0
	if d := inst.host(); d != nil {
		pid = d.pid()
	}

	buf := newRoundBuf(n, w.perStep)
	var tr *tracer
	if traced {
		tr = newTracer(w.name, rounds/2*n)
	}
	var plain, spanned perRound
	var setup, spawnMs []float64
	var used usage
	heapSteps := 0
	for r := 0; r < warmRounds+rounds; r++ {
		if r < warmRounds {
			_, ok, err := timeRound(inst, r, n, w.perStep, nil, nil)
			passed += ok
			if err != nil {
				return fail(err)
			}
			continue
		}
		secs, ms, ok, err := setupCycles(w, e, cycles)
		passed += ok
		if err != nil {
			return fail(err)
		}
		setup = append(setup, median(secs))
		spawnMs = append(spawnMs, ms...)

		set, rtr := &plain, (*tracer)(nil)
		if traced && (r-warmRounds)%2 == 1 {
			set, rtr = &spanned, tr
		}
		heap := traced && rtr == nil
		before, err := readUsage(inst, heap)
		if err != nil {
			return nil, err
		}
		rs, ok, err := timeRound(inst, r, n, w.perStep, buf, rtr)
		passed += ok
		if err != nil {
			return fail(err)
		}
		after, err := readUsage(inst, heap)
		if err != nil {
			return nil, err
		}
		used.addDelta(before, after)
		set.add(rs)
		if heap {
			heapSteps += n
		}
	}
	_, schedNs := inst.loadgenNs()

	rss, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}
	closeInst()
	out.attempted, out.failed = planned, planned-passed
	episodes := rounds * n * w.perStep
	perEpisode := func(total int64, count int) value {
		if count == 0 {
			return value{}
		}
		return value{float64(total) / float64(count), count}
	}
	us := func(v value) value { return value{v.V / 1e3, v.N} }
	steps := len(plain.periodP50) * n

	out.e2e = values{
		"episode_p50_us":     {quietest(plain.periodP50) / float64(w.perStep) / 1e3, steps},
		"sync_delay_p50_us":  {quietest(plain.syncP50) / 1e3, steps * w.perStep},
		"barrier_share":      {median(plain.share), steps},
		"cpu_us_per_episode": {quietest(plain.cpu) / 1e3, steps * w.perStep},
		"peak_rss_mb":        {rss, 1},
		"setup_s":            {quietest(setup), len(setup) * cycles},
	}
	if !traced {
		return out, nil
	}

	sum, spans := tr.totals()
	spannedEpisodes := spans * w.perStep
	children := sum[spanCompute] + sum[spanArrive] + sum[spanAwait] + sum[spanTree] + sum[spanDynamic] + sum[spanReconfig]
	heapEpisodes := heapSteps * w.perStep
	out.layers = values{
		"softbarrier.tree_us_per_episode":         us(perEpisode(sum[spanTree], spannedEpisodes)),
		"softbarrier.dynamic_us_per_episode":      us(perEpisode(sum[spanDynamic], spannedEpisodes)),
		"softbarrier.reconfig_us_per_episode":     us(perEpisode(sum[spanReconfig], spannedEpisodes)),
		"loadgen.compute_us_per_episode":          us(perEpisode(sum[spanCompute], spannedEpisodes)),
		"netbarrier.client_arrive_us_per_episode": us(perEpisode(sum[spanArrive], spannedEpisodes)),
		"netbarrier.client_await_us_per_episode":  us(perEpisode(sum[spanAwait], spannedEpisodes)),
		"loadgen.self_us_per_episode":             us(perEpisode(selfTime(sum[spanEpisode], children), spannedEpisodes)),
		"loadgen.span_coverage":                   {float64(children) / float64(max(sum[spanEpisode], 1)), spans},
		"loadgen.schedule_lag_p50_us":             {percentile(tr.lag, 0.5) / 1e3, len(tr.lag)},
		"loadmodel.schedule_us_per_episode":       us(perEpisode(schedNs, (warmRounds+rounds)*n)),
		"runtime.allocs_per_episode":              perEpisode(int64(used.mallocs), heapEpisodes),
		"runtime.alloc_bytes_per_episode":         perEpisode(int64(used.bytes), heapEpisodes),
		"loadgen.cpu_us_per_episode":              us(perEpisode(used.cpuSelf, episodes)),
		"loadgen.episodes_per_s":                  {float64(steps*w.perStep) / (float64(plain.wall) / 1e9), steps},
		"loadgen.episode_p99_us":                  {quietest(plain.periodP99) / float64(w.perStep) / 1e3, steps},
		"loadgen.sync_delay_p99_us":               {quietest(plain.syncP99) / 1e3, steps * w.perStep},
		"loadgen.trace_overhead":                  {quietest(spanned.periodP50)/quietest(plain.periodP50) - 1, len(spanned.periodP50) * n},
	}
	if pid != 0 {
		// The heap counters above are this process's: they leave the
		// daemon's side out. These are the daemon's.
		life := (warmRounds + rounds) * n * w.perStep
		out.layers["barrierd.cpu_us_per_episode"] = us(perEpisode(used.cpuChild, episodes))
		out.layers["barrierd.read_syscalls_per_episode"] = perEpisode(int64(used.syscr), episodes)
		out.layers["barrierd.write_syscalls_per_episode"] = perEpisode(int64(used.syscw), episodes)
		out.layers["barrierd.ctx_switches_per_episode"] = perEpisode(ctxSwitches, life)
		out.layers["barrierd.spawn_ms"] = value{median(spawnMs), len(spawnMs)}
	}
	if err := probe(w, e, out); err != nil {
		return nil, err
	}
	if traceFile != "" {
		if err := tr.write(traceFile); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// defaultTraceFile is where -trace 1 puts a workload's spans.
func defaultTraceFile(workload string) (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	return filepath.Join(root, buildDir, "trace-"+workload+".jsonl"), nil
}
