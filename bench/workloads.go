package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"softbarrier"
	"softbarrier/internal/loadmodel"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/shardbarrier"
	"softbarrier/internal/stats"
	"softbarrier/internal/wire"
	"softbarrier/internal/wire/memnet"
)

// runStart anchors the run clock: every timestamp in a run is nanoseconds
// since it, read from the monotonic clock.
var runStart = time.Now()

func now() int64 { return int64(time.Since(runStart)) }

// maxPerStep is the most episodes one step completes (the four sessions
// of a barrierd-busy-4x8 sweep).
const maxPerStep = 4

// step is what the driver measured and checked in one step: one episode,
// or on barrierd-busy-4x8 one sweep of four.
type step struct {
	start   int64             // first arrival issued (scheduled work begins)
	end     int64             // every release collected
	sync    [maxPerStep]int64 // per episode: just before its last arrival → its releases collected
	barrier int64             // mean over members of (releases collected − own arrival), ns
	failed  int               // episodes whose output check failed
}

// instance is one constructed system under test with every member joined,
// driven by a single goroutine: step issues every arrival of an episode,
// in the order and at the offsets the workload's schedule gives, and then
// collects every release. No goroutine per member exists anywhere in the
// driver, so arrival order is an input and not the Go scheduler's output
// (README.md, "Two pitfalls").
type instance interface {
	// round prepares round r of n steps, outside the timed loop.
	round(r, n int) error
	// step runs and checks the next step. An error means the system is
	// beyond use (poison, sticky client error, barrierd gone).
	step(st *step, tr *tracer) error
	// host is the barrierd child hosting the barrier, nil when this
	// process hosts it.
	host() *daemon
	// loadgenNs is the time the driver has spent so far spinning idle in
	// scheduled busy-waits, and generating arrival schedules.
	loadgenNs() (idle, schedule int64)
	// check is the end-of-round check beyond the per-release ones.
	check() error
	// close tears the system down and returns the context switches the
	// kernel accounted to the barrierd child over its life, if there is one.
	close() (ctxSwitches int64)
}

// env is what a workload's constructor gets from the run.
type env struct {
	seed     uint64
	procs    *children
	barrierd string // path of the built daemon; set before the first spawn
}

// workload is one named set of inputs. Sizes are constants so that a
// parent commit and a change do identical work.
type workload struct {
	name    string
	why     string
	steps   int // N: steps in a timed round, sized for about a quarter of a second on the reference host
	perStep int // episodes one step completes
	cycles  int // C: fresh set-up cycles timed for setup_s in a run of the default length
	daemon  bool
	open    func(e *env) (instance, error)
}

const cohort = 32

var workloads = []*workload{
	{
		name:  "lib-tight-32",
		why:   "the three tree cores do all the work and codec, session and transport none, so a one-tree-core rewrite shows here and nowhere else",
		steps: 40000, perStep: 1, cycles: 2000,
		open: func(e *env) (instance, error) { return newLibInst(e.seed, false), nil },
	},
	{
		name:  "lib-allreduce-32",
		why:   "the same trees carrying payload through runtime.Reducer, so a gain for plain arrivals that costs the collective path is visible",
		steps: 28000, perStep: 1, cycles: 2000,
		open: func(e *env) (instance, error) { return newLibInst(e.seed, true), nil },
	},
	{
		name:  "mem-skewed-32",
		why:   "systemic plus random arrival skew leaves the server idle when the last member arrives, so sync delay is the bare critical path through session, codec and memnet; only here is barrier_share far below 1",
		steps: 600, perStep: 1, cycles: 400,
		open: func(e *env) (instance, error) {
			return openMemSession(cohort, skewedArrivals(), false, e.seed)
		},
	},
	{
		name:  "barrierd-busy-4x8",
		why:   "a real barrierd process over loopback TCP kept busy by four sessions: kernel sockets, write calls and release fan-out dominate and the tree is under 1%",
		steps: 750, perStep: 4, cycles: 120, daemon: true,
		open: openBarrierd,
	},
	{
		name:  "fleet-allreduce-2x8",
		why:   "adds the leaf/root hop and payload frames over memnet, so codec and session are used differently from mem-skewed-32 and memnet's own allocation has a number",
		steps: 6500, perStep: 1, cycles: 400,
		open: openFleet,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// treeBarrier is what the in-process workloads call on each of the three
// tree barrier kinds of the root package.
type treeBarrier interface {
	Arrive(id int)
	Await(id int)
	ArriveReduce(id int, in []byte) error
	AwaitResult(id int, out []byte) error
	Err() error
}

// libInst drives the root package alone. One composite episode is one
// episode on each of the three tree kinds, so all three stay in one number
// weighted by their cost.
type libInst struct {
	reduce  bool
	perm    []int // seeded arrival order, fixed for the run
	b       [3]treeBarrier
	led     *ledger
	out     [3][][]byte // out[kind][member]: what AwaitResult delivered
	episode uint64
}

func newLibInst(seed uint64, reduce bool) *libInst {
	l := &libInst{reduce: reduce, perm: stats.NewRNG(mix(seed, 1)).Perm(cohort)}
	if reduce {
		l.led = newLedger(mix(seed, 2), cohort)
		for k := range l.out {
			l.out[k] = make([][]byte, cohort)
			for i := range l.out[k] {
				l.out[k][i] = make([]byte, 8)
			}
		}
	}
	return l
}

// round builds fresh barriers, which averages allocation layout over the
// rounds of a run.
func (l *libInst) round(int, int) error {
	var opts []softbarrier.Option
	if l.reduce {
		opts = append(opts, softbarrier.WithCollective(softbarrier.OpSumUint64()))
	}
	l.b = [3]treeBarrier{
		softbarrier.NewCombiningTree(cohort, 4, opts...),
		softbarrier.NewDynamic(cohort, 4, opts...),
		softbarrier.NewReconfigurable(cohort, softbarrier.ReconfigConfig{ReplanEvery: 10}, opts...),
	}
	return nil
}

func (l *libInst) step(st *step, tr *tracer) error {
	if l.reduce {
		l.led.fill(l.episode)
	}
	l.episode++
	head, last := l.perm[:cohort-1], l.perm[cohort-1]
	t := now()
	st.start = t
	tr.begin(t)
	var sync int64
	for k, b := range l.b {
		var tl int64
		if l.reduce {
			for _, id := range head {
				if err := b.ArriveReduce(id, l.led.in[id]); err != nil {
					return err
				}
			}
			tl = now()
			if err := b.ArriveReduce(last, l.led.in[last]); err != nil {
				return err
			}
			for id := 0; id < cohort; id++ {
				if err := b.AwaitResult(id, l.out[k][id]); err != nil {
					return err
				}
			}
		} else {
			for _, id := range head {
				b.Arrive(id)
			}
			tl = now()
			b.Arrive(last)
			for id := 0; id < cohort; id++ {
				b.Await(id)
			}
		}
		te := now()
		sync += te - tl
		tr.add(spanTree+spanKind(k), t, te-t)
		t = te
	}
	st.end = t
	st.sync[0] = sync
	st.barrier = st.end - st.start // no scheduled work: members arrive at the start

	st.failed = 0
	for k, b := range l.b {
		if err := b.Err(); err != nil {
			return fmt.Errorf("%s barrier poisoned: %w", kinds[spanTree+spanKind(k)].name, err)
		}
		if l.reduce {
			for _, got := range l.out[k] {
				if !l.led.ok(got) {
					st.failed = 1
				}
			}
		}
	}
	return nil
}

func (l *libInst) host() *daemon             { return nil }
func (l *libInst) loadgenNs() (int64, int64) { return 0, 0 }
func (l *libInst) check() error              { return nil }
func (l *libInst) close() int64              { return 0 }

// group is the clients of one barrier session (of one fleet-wide session,
// on the fleet), in the order the driver serves them.
type group struct {
	clients []*netbarrier.Client
	base    uint64 // the episode index the JoinResp gave: episode k releases as base+k
	p       int    // the cohort size every release must carry
}

// netInst drives netbarrier clients against a server in this process, a
// barrierd child, or an in-process fleet.
type netInst struct {
	groups  []group
	members int
	led     *ledger             // nil on plain sessions; one group only
	gen     loadmodel.Generator // nil: no work, arrivals issued back to back
	seed    uint64
	due     [][]int64 // this round's schedule: per episode, arrival offsets in ns, ascending
	who     [][]int   // … and whose arrival each is
	k       int       // the next episode's place in the round
	issue   []int64   // scratch: when each arrival of the episode was issued
	rels    []netbarrier.Release
	episode uint64
	idle    int64 // wall time of the busy-wait iterations in which nothing else ran
	sched   int64 // wall time spent generating arrival schedules
	child   *daemon
	verify  func() error // fleet: FleetP at the root
	stop    func()       // shuts the serving side down
}

// idleSpinNs tells the two kinds of busy-wait iteration apart. One in
// which runtime.Gosched found nothing to run takes 0.15µs (0.3µs at the
// 99th percentile) and is the member's stand-in work: its time comes off
// the CPU the barrier is charged. A longer one ran the server's goroutines,
// or was preempted, and stays on the bill: the first is the barrier's CPU
// and the second used none.
const idleSpinNs = 1000

// skewedArrivals is mem-skewed-32's arrival model: the paper's two
// regimes at once, a systemic linear skew of 200µs across the ids over
// random N(200µs, 50µs) work.
func skewedArrivals() loadmodel.Generator {
	return loadmodel.StaticSkew{
		Base:    loadmodel.IID{N: cohort, Dist: stats.Normal{Mu: 200e-6, Sigma: 50e-6}},
		Offsets: loadmodel.LinearOffsets(cohort, 200e-6),
	}
}

// orderSchedule turns per-member arrival times (seconds from the episode's
// start, as loadmodel.Schedule gives them) into the order the driver
// issues them in: offsets in ns, negatives clamped to 0, ascending, ties
// by id.
func orderSchedule(times [][]float64) (due [][]int64, who [][]int) {
	due = make([][]int64, len(times))
	who = make([][]int, len(times))
	for k, ts := range times {
		d := make([]int64, len(ts))
		w := make([]int, len(ts))
		for i := range w {
			w[i] = i
		}
		sort.SliceStable(w, func(a, b int) bool { return ts[w[a]] < ts[w[b]] })
		for j, id := range w {
			if ts[id] > 0 {
				d[j] = int64(ts[id] * 1e9)
			}
		}
		due[k], who[k] = d, w
	}
	return due, who
}

func (n *netInst) round(r, steps int) error {
	if n.gen == nil {
		return nil
	}
	t0 := now()
	n.due, n.who = orderSchedule(loadmodel.Schedule(n.gen, steps, mix(n.seed, uint64(r))))
	n.k = 0
	n.sched += now() - t0
	return nil
}

func (n *netInst) arrive(c *netbarrier.Client, member int) error {
	if n.led != nil {
		return c.ArriveReduce(n.led.in[member])
	}
	return c.Arrive()
}

func (n *netInst) step(st *step, tr *tracer) error {
	ep := n.episode
	n.episode++
	if n.led != nil {
		n.led.fill(ep)
	}
	var last [maxPerStep]int64
	var arriveNs, busy, issued int64
	start := now()
	st.start = start
	tr.begin(start)
	t := start
	if n.gen != nil {
		// Scheduled arrivals, one group: busy-wait to each due time, yielding
		// so the server's goroutines run, and issue the arrival.
		g := &n.groups[0]
		k := n.k
		n.k++
		var lag int64
		for j, off := range n.due[k] {
			w0 := t
			for due := start + off; t < due; {
				runtime.Gosched()
				t1 := now()
				if t1-t < idleSpinNs {
					n.idle += t1 - t
				}
				t = t1
			}
			busy += t - w0
			lag += t - (start + off)
			if j == len(n.due[k])-1 {
				last[0] = t
			}
			issued += t
			if err := n.arrive(g.clients[n.who[k][j]], n.who[k][j]); err != nil {
				return err
			}
			t1 := now()
			arriveNs += t1 - t
			t = t1
		}
		tr.addLag(lag / int64(len(n.due[k])))
	} else {
		m := 0
		for gi := range n.groups {
			g := &n.groups[gi]
			for i, c := range g.clients {
				if i == len(g.clients)-1 {
					last[gi] = now()
				}
				if err := n.arrive(c, m); err != nil {
					return err
				}
				m++
			}
		}
		t = now()
		arriveNs = t - start
		issued = int64(n.members) * start // no scheduled work: members arrive at the start
	}
	arrived := t

	m := 0
	st.barrier = -issued
	for gi := range n.groups {
		g := &n.groups[gi]
		for _, c := range g.clients {
			rel, err := c.Await()
			if err != nil {
				return err
			}
			n.rels[m] = rel
			m++
		}
		t = now()
		st.sync[gi] = t - last[gi]
		st.barrier += int64(len(g.clients)) * t
	}
	st.end = t
	st.barrier /= int64(n.members)
	tr.add(spanCompute, start, busy)
	tr.add(spanArrive, start, arriveNs)
	tr.add(spanAwait, arrived, st.end-arrived)

	st.failed = 0
	m = 0
	for gi := range n.groups {
		g := &n.groups[gi]
		bad := false
		for range g.clients {
			if checkRelease(n.rels[m], g.base+ep, g.p, n.led) != nil {
				bad = true
			}
			m++
		}
		if bad {
			st.failed++
		}
	}
	return nil
}

func (n *netInst) host() *daemon             { return n.child }
func (n *netInst) loadgenNs() (int64, int64) { return n.idle, n.sched }

func (n *netInst) check() error {
	if n.verify != nil {
		return n.verify()
	}
	return nil
}

func (n *netInst) close() int64 {
	for _, g := range n.groups {
		for _, c := range g.clients {
			_ = c.Leave() // the serving side is shut down next whatever this returns
		}
	}
	if n.stop != nil {
		n.stop()
	}
	if n.child == nil {
		return 0
	}
	ru := n.child.stop()
	if ru == nil {
		return 0
	}
	return ru.Nvcsw + ru.Nivcsw
}

// join dials count clients through d and joins them to session as ids
// 0..count-1 of a cohort of p, appending them to the instance's last
// group when extend is set (the fleet's one session spans two leaves).
func (n *netInst) join(d wire.Dialer, addr, session string, p, count int, extend bool) error {
	if !extend {
		n.groups = append(n.groups, group{p: p})
	}
	g := &n.groups[len(n.groups)-1]
	for i := 0; i < count; i++ {
		c, err := netbarrier.DialVia(d, addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("dialing %s: %w", addr, err)
		}
		g.clients = append(g.clients, c)
		if err := c.JoinAs(session, p, i); err != nil {
			return err
		}
		if i == 0 && !extend {
			g.base = c.Episode()
		} else if c.Episode() != g.base {
			return fmt.Errorf("session %s: member %d joined at episode %d, the first at %d", session, i, c.Episode(), g.base)
		}
	}
	n.members += count
	n.rels = make([]netbarrier.Release, n.members)
	return nil
}

// serve runs srv on ln and returns the function that shuts it down and
// waits for the accept loop to end.
func serve(srv *netbarrier.Server, ln wire.Listener) func() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // ErrServerClosed, after Close below
	}()
	return func() {
		_ = srv.Close()
		<-done
	}
}

// openMemSession starts what barrierd with no flags runs, in this process
// on a fresh memnet, and joins one session of members clients. gen
// schedules their arrivals (nil: none); reduce arms sum-u64.
func openMemSession(members int, gen loadmodel.Generator, reduce bool, seed uint64) (instance, error) {
	mn := memnet.New()
	ln, err := mn.Listen("mem:0")
	if err != nil {
		return nil, err
	}
	opt := netbarrier.Options{Watchdog: 10 * time.Second, ReplanEvery: 10}
	n := &netInst{gen: gen, seed: mix(seed, 3)}
	if reduce {
		op := softbarrier.OpSumUint64()
		opt.Op = &op
		n.led = newLedger(mix(seed, 2), members)
	}
	n.stop = serve(netbarrier.NewServer(opt), ln)
	if err := n.join(mn, ln.Addr().String(), "bench", members, members, false); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// openBarrierd spawns the daemon and joins four sessions of eight over
// loopback TCP. Four sessions keep both processes runnable; a single one
// ends every episode in an idle-CPU wake-up (README.md, "Two pitfalls").
func openBarrierd(e *env) (instance, error) {
	if e.barrierd == "" {
		return nil, errors.New("barrierd was not built")
	}
	d, err := e.procs.startDaemon(e.barrierd)
	if err != nil {
		return nil, err
	}
	n := &netInst{child: d}
	for s := 0; s < 4; s++ {
		if err := n.join(wire.DefaultTCP, d.addr, fmt.Sprintf("bench-%d", s), 8, 8, false); err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}

// openFleet starts a root and two leaves in this process on one memnet
// and joins eight clients to each leaf, as one fleet-wide sum-u64 session
// of sixteen.
func openFleet(e *env) (instance, error) {
	op := softbarrier.OpSumUint64()
	mn := memnet.New()
	fleet, err := shardbarrier.StartFleet(shardbarrier.FleetOptions{
		Leaves: 2, Transport: mn, Bind: "mem:0",
		Net: netbarrier.Options{Op: &op},
	})
	if err != nil {
		return nil, err
	}
	n := &netInst{led: newLedger(mix(e.seed, 2), 16), stop: func() { _ = fleet.Close() }}
	// Clients see their leaf's cohort in a release; the fleet-wide count
	// is the root's to report.
	n.verify = func() error {
		st, ok := fleet.Root.SessionStats("bench")
		if !ok || st.FleetP != 16 {
			return fmt.Errorf("root reports FleetP=%d (session live: %v), want 16", st.FleetP, ok)
		}
		return nil
	}
	for leaf, addr := range fleet.LeafAddrs() {
		if err := n.join(mn, addr, "bench", 8, 8, leaf > 0); err != nil {
			n.close()
			return nil, err
		}
	}
	return n, nil
}
