package shardbarrier

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/wire"
	"softbarrier/internal/wire/memnet"
)

// testNet is the in-process network the protocol-logic tests run on; the
// TCP smoke (TestTCPSmokeHierarchicalEpisodes) keeps one fleet on real
// loopback sockets.
var testNet = memnet.New()

// startFleet launches an in-process fleet on the test memnet, torn down
// with the test.
func startFleet(t testing.TB, opt FleetOptions) *Fleet {
	t.Helper()
	if opt.Transport == nil {
		opt.Transport = testNet
		opt.Bind = "mem:0"
	}
	f, err := StartFleet(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// startTCPFleet is startFleet on real loopback sockets — the production
// transport, for the TCP smoke and the benchmarks.
func startTCPFleet(t testing.TB, opt FleetOptions) *Fleet {
	t.Helper()
	opt.Transport = wire.DefaultTCP
	opt.Bind = "127.0.0.1:0"
	return startFleet(t, opt)
}

// testDial routes an address to the transport that owns it: testNet for
// memnet addresses, TCP otherwise.
func testDial(addr string) (*netbarrier.Client, error) {
	if strings.HasPrefix(addr, "mem:") {
		return netbarrier.DialVia(testNet, addr, 5*time.Second)
	}
	return netbarrier.DialTimeout(addr, 5*time.Second)
}

// dialJoin connects a client to addr and joins, failing the test on error.
func dialJoin(t testing.TB, addr, session string, p, id int) *netbarrier.Client {
	t.Helper()
	c, err := testDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.JoinAs(session, p, id); err != nil {
		c.Close()
		t.Fatalf("join %s: %v", session, err)
	}
	return c
}

// leafFor assigns client i of p to a leaf, contiguously: ids [0, p/n) on
// leaf 0, the next block on leaf 1, and so on. Contiguous blocks plus
// pinned shard indices are what make the hierarchical fold's grouping
// deterministic.
func leafFor(i, p, leaves int) int { return i * leaves / p }

func f64bytes(v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(v))
	return b[:]
}

func f64of(b []byte) float64 { return math.Float64frombits(binary.BigEndian.Uint64(b)) }

// contribution is client i's deterministic episode contribution. The
// values are integer-valued float64s with sums far below 2^53, so float
// addition over them is exact under any grouping — a hierarchical fold
// (per-leaf partial sums folded at the root) must therefore be
// bit-identical to the flat sequential fold, and any discrepancy is a
// protocol bug, not rounding.
func contribution(i int, ep uint64) float64 { return float64(i*1000 + int(ep%7) + 1) }

func expectedSum(p int, ep uint64) float64 {
	sum := 0.0
	for i := 0; i < p; i++ {
		sum += contribution(i, ep)
	}
	return sum
}

// TestHierarchicalEpisodes runs a plain (no collective) session spanning
// two leaves and checks that every client sees the same totally ordered
// episode sequence — the root's release is what serializes the fleet.
func TestHierarchicalEpisodes(t *testing.T) {
	const leaves, p, episodes = 2, 8, 50
	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 10 * time.Second},
	})
	addrs := f.LeafAddrs()

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local := p / leaves
			c := dialJoin(t, addrs[leafFor(i, p, leaves)], "episodes", local, -1)
			defer c.Leave()
			for ep := 0; ep < episodes; ep++ {
				r, err := c.Wait()
				if err != nil {
					errs[i] = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if r.Episode != uint64(ep) {
					errs[i] = fmt.Errorf("episode %d released as %d", ep, r.Episode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}

	// The root hosted the fleet session as a shard-kind cohort.
	if st, ok := f.Root.SessionStats("episodes"); ok {
		if !st.Shard {
			t.Error("root session is not shard-kind")
		}
	}
}

// TestHierarchicalAllReduceDifferential is the satellite differential: the
// same cohort, same per-episode contributions, run once through a 2-leaf
// hierarchy and once through a flat single server, must produce
// bit-identical AllReduce results — which both must equal the sequential
// ascending-id fold. sum-f64 is non-commutative in general; the
// integer-valued contributions (see contribution) make every grouping
// exact, so equality is required, not hoped for.
func TestHierarchicalAllReduceDifferential(t *testing.T) {
	const leaves, p, episodes = 2, 8, 30
	op := softbarrier.OpSumFloat64()

	run := func(dial func(i int) *netbarrier.Client) [][]byte {
		results := make([][]byte, episodes) // client 0's view; all clients verify their own
		var wg sync.WaitGroup
		errs := make([]error, p)
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := dial(i)
				defer c.Leave()
				for ep := uint64(0); ep < episodes; ep++ {
					got, err := c.AllReduce(f64bytes(contribution(i, ep)))
					if err != nil {
						errs[i] = fmt.Errorf("episode %d: %w", ep, err)
						return
					}
					if want := expectedSum(p, ep); f64of(got) != want {
						errs[i] = fmt.Errorf("episode %d: folded %v, sequential fold %v", ep, f64of(got), want)
						return
					}
					if i == 0 {
						results[ep] = append([]byte(nil), got...)
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		return results
	}

	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 10 * time.Second, Op: &op},
	})
	addrs := f.LeafAddrs()
	hier := run(func(i int) *netbarrier.Client {
		return dialJoin(t, addrs[leafFor(i, p, leaves)], "diff", p/leaves, -1)
	})

	flatAddr, flatSrv := startFlatServer(t, testNet, "mem:0", netbarrier.Options{Watchdog: 10 * time.Second, Op: &op})
	_ = flatSrv
	flat := run(func(i int) *netbarrier.Client {
		return dialJoin(t, flatAddr, "diff", p, -1)
	})

	for ep := 0; ep < episodes; ep++ {
		if string(hier[ep]) != string(flat[ep]) {
			t.Fatalf("episode %d: hierarchical fold % x != flat fold % x", ep, hier[ep], flat[ep])
		}
	}
}

// startFlatServer runs a standalone netbarrier server for differential
// comparison.
func startFlatServer(t testing.TB, tr wire.Transport, bind string, opt netbarrier.Options) (string, *netbarrier.Server) {
	t.Helper()
	ln, err := tr.Listen(bind)
	if err != nil {
		t.Fatal(err)
	}
	srv := netbarrier.NewServer(opt)
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv
}

// TestLeafKillPoisonsEveryShard kills one leaf mid-episode — the other
// leaf's aggregated arrival is already at the root — and requires the
// poison cause to reach every client on every shard over the wire: the
// dying leaf's clients get the local cause, and the surviving leaf's
// clients get a cause naming the dead shard.
func TestLeafKillPoisonsEveryShard(t *testing.T) {
	const leaves, perLeaf = 2, 3
	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 30 * time.Second},
	})
	addrs := f.LeafAddrs()

	var clients [leaves][]*netbarrier.Client
	for l := 0; l < leaves; l++ {
		for i := 0; i < perLeaf; i++ {
			clients[l] = append(clients[l], dialJoin(t, addrs[l], "kill", perLeaf, -1))
		}
	}
	defer func() {
		for l := range clients {
			for _, c := range clients[l] {
				c.Close()
			}
		}
	}()

	// Warm-up episode: every leaf's root link is established.
	var wg sync.WaitGroup
	for l := range clients {
		for _, c := range clients[l] {
			wg.Add(1)
			go func(c *netbarrier.Client) {
				defer wg.Done()
				if _, err := c.Wait(); err != nil {
					t.Errorf("warmup: %v", err)
				}
			}(c)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("warmup episode failed; aborting")
	}

	// Mid-episode: leaf 1's whole cohort arrives (its aggregated arrival
	// reaches the root); leaf 0's clients block in Await without arriving.
	errs := make([][]error, leaves)
	for l := range clients {
		errs[l] = make([]error, perLeaf)
		for i, c := range clients[l] {
			wg.Add(1)
			go func(l, i int, c *netbarrier.Client) {
				defer wg.Done()
				var err error
				if l == 1 {
					_, err = c.Wait()
				} else {
					_, err = c.Await()
				}
				errs[l][i] = err
			}(l, i, c)
		}
	}
	time.Sleep(100 * time.Millisecond) // let leaf 1's shard arrival reach the root
	start := time.Now()
	f.Leaves[0].Close()
	wg.Wait()

	for i, err := range errs[0] {
		if err == nil || !strings.Contains(err.Error(), "server closed") {
			t.Errorf("dying leaf's client %d: got %v, want the local close cause", i, err)
		}
	}
	for i, err := range errs[1] {
		if err == nil {
			t.Fatalf("surviving leaf's client %d completed an episode the fleet never finished", i)
		}
		if !strings.Contains(err.Error(), "shard 0 poisoned") {
			t.Errorf("surviving leaf's client %d: cause %v does not name the dead shard", i, err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cross-shard poison took %v", d)
	}
}

// TestNameReuseAcrossFleetAfterPoison: once every member of a poisoned
// fleet session has its cause, the name is free on every leaf and at the
// root — each leaf session took its own root link down with it — so a new
// cohort under the same name dials fresh links and runs clean.
func TestNameReuseAcrossFleetAfterPoison(t *testing.T) {
	const leaves, perLeaf, episodes = 2, 2, 100
	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 30 * time.Second},
	})
	addrs := f.LeafAddrs()
	cohort := func() []*netbarrier.Client {
		var cs []*netbarrier.Client
		for l := 0; l < leaves; l++ {
			for i := 0; i < perLeaf; i++ {
				c := dialJoin(t, addrs[l], "reuse", perLeaf, -1)
				t.Cleanup(func() { c.Close() })
				cs = append(cs, c)
			}
		}
		return cs
	}
	run := func(cs []*netbarrier.Client, n int, wantErr bool) {
		var wg sync.WaitGroup
		for _, c := range cs {
			wg.Add(1)
			go func(c *netbarrier.Client) {
				defer wg.Done()
				for ep := 0; ep < n; ep++ {
					if _, err := c.Wait(); (err != nil) != wantErr {
						t.Errorf("episode %d: err %v, want error: %v", ep, err, wantErr)
						return
					}
				}
			}(c)
		}
		wg.Wait()
	}

	first := cohort()
	run(first, 3, false)
	first[len(first)-1].Close() // dies between episodes: poisons its leaf, the root, the other leaf
	run(first[:len(first)-1], 1, true)
	if t.Failed() {
		t.FailNow()
	}
	run(cohort(), episodes, false)
}

// TestDeadRootPoisonsLeafSessions closes the root between episodes: the
// leaves' link readers must convert the root's poison into local session
// poisons promptly — clients get a wire-delivered cause, not a hang.
func TestDeadRootPoisonsLeafSessions(t *testing.T) {
	const leaves, perLeaf = 2, 2
	f := startFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 30 * time.Second},
	})
	addrs := f.LeafAddrs()

	var clients []*netbarrier.Client
	for l := 0; l < leaves; l++ {
		for i := 0; i < perLeaf; i++ {
			clients = append(clients, dialJoin(t, addrs[l], "deadroot", perLeaf, -1))
		}
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *netbarrier.Client) {
			defer wg.Done()
			for ep := 0; ; ep++ {
				if _, err := c.Wait(); err != nil {
					errs[i] = err
					return
				}
				if ep == 0 && i == 0 {
					// After the first fleet episode the links are live;
					// kill the root from one client's goroutine.
					go f.Root.Close()
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "server closed") {
			t.Errorf("client %d: got %v, want the root's close cause", i, err)
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("root death took %v to reach clients", d)
	}
}

// TestUnreachableRootPoisonsLeafSession starts a leaf whose root address
// has no listener: the first forwarded arrival's dial fails every attempt,
// and each local client's Wait must return that failure. The 2s bound is
// the budget for all of the link's dial attempts and backoff sleeps, so
// raising dialAttempts or dialBackoff far enough fails here.
func TestUnreachableRootPoisonsLeafSession(t *testing.T) {
	const p = 3
	leaf := NewLeaf(LeafOptions{
		Net:  netbarrier.Options{Watchdog: 30 * time.Second, Transport: testNet},
		Root: "mem:no-root-listens-here",
	})
	ln, err := testNet.Listen("mem:0")
	if err != nil {
		t.Fatal(err)
	}
	go leaf.Serve(ln)
	t.Cleanup(func() { leaf.Close() })

	clients := make([]*netbarrier.Client, p)
	for i := range clients {
		clients[i] = dialJoin(t, ln.Addr().String(), "unreachable", p, -1)
		defer clients[i].Close()
	}
	errs := make(chan error, p)
	start := time.Now()
	for _, c := range clients {
		go func(c *netbarrier.Client) {
			_, err := c.Wait()
			errs <- err
		}(c)
	}
	for i := 0; i < p; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "cannot reach root") {
				t.Errorf("Wait = %v, want the link's dial failure", err)
			}
		case <-time.After(2*time.Second - time.Since(start)):
			t.Fatalf("only %d of %d clients saw the dial failure within 2s", i, p)
		}
	}
}

// TestVersionMismatchRefusedByRoot sends the root a ShardJoin whose
// version byte is from the future and requires the refusal to say so —
// the satellite's fail-fast contract for mixed-revision fleets, checked
// end-to-end over a real socket.
func TestVersionMismatchRefusedByRoot(t *testing.T) {
	addr, _ := startFlatServer(t, wire.DefaultTCP, "127.0.0.1:0", netbarrier.Options{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf, err := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeShardJoin, Name: "v", P: 2, ID: 0})
	if err != nil {
		t.Fatal(err)
	}
	buf[5]++ // the version byte, right after the length prefix and type
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := wire.NewFrameConn(conn).ReadFrame()
	if err != nil {
		t.Fatalf("no refusal frame: %v", err)
	}
	if resp.Type != wire.TypeJoinResp || !strings.Contains(resp.Err, "version mismatch") {
		t.Fatalf("got %s %q, want a version-mismatch refusal", wire.FrameName(resp.Type), resp.Err)
	}
}

// TestTCPSmokeHierarchicalEpisodes keeps one hierarchical scenario on real
// loopback sockets now that the protocol-logic tests run on memnet: a
// 2-leaf fleet, a handful of fleet-wide episodes, totally ordered.
func TestTCPSmokeHierarchicalEpisodes(t *testing.T) {
	const leaves, p, episodes = 2, 4, 5
	f := startTCPFleet(t, FleetOptions{
		Leaves: leaves,
		Net:    netbarrier.Options{Watchdog: 10 * time.Second},
	})
	addrs := f.LeafAddrs()

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialJoin(t, addrs[leafFor(i, p, leaves)], "tcp-smoke", p/leaves, -1)
			defer c.Leave()
			for ep := 0; ep < episodes; ep++ {
				r, err := c.Wait()
				if err != nil {
					errs[i] = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if r.Episode != uint64(ep) {
					errs[i] = fmt.Errorf("episode %d released as %d", ep, r.Episode)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

// TestLeafElasticBoundary runs elastic sessions on the leaves of a fleet —
// the second context the session's membership step runs in: on a leaf the
// episode boundary (and the barrier Resize inside it) happens in the
// upstream link's done callback, after the local tree's gate has opened,
// not inside its Observer. A late joiner parks on leaf 0 and is admitted
// at a boundary (that leaf's releases go P 2 → 3, the fleet's P 4 → 5),
// then a member leaves (P back to 2), with ten checked episodes after each
// change.
func TestLeafElasticBoundary(t *testing.T) {
	const session = "leaf-elastic"
	f := startFleet(t, FleetOptions{
		Leaves: 2,
		Net:    netbarrier.Options{Elastic: true, ReplanEvery: 2, Watchdog: 10 * time.Second},
	})
	addrs := f.LeafAddrs()
	type member struct {
		c    *netbarrier.Client
		leaf int
	}
	var members []member
	for i := 0; i < 4; i++ {
		members = append(members, member{dialJoin(t, addrs[i/2], session, 2, -1), i / 2})
	}
	var ep uint64
	// run drives n episodes with the current members; every release must
	// name the episode and the local participant count of the next one.
	run := func(n int, wantP [2]int) {
		t.Helper()
		for ; n > 0; n-- {
			var wg sync.WaitGroup
			for _, m := range members {
				wg.Add(1)
				go func(m member) {
					defer wg.Done()
					r, err := m.c.Wait()
					if err != nil {
						t.Errorf("episode %d: %v", ep, err)
					} else if r.Episode != ep || r.P != wantP[m.leaf] {
						t.Errorf("episode %d on leaf %d released as episode %d with p %d, want p %d", ep, m.leaf, r.Episode, r.P, wantP[m.leaf])
					}
				}(m)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			ep++
		}
	}
	fleetP := func() int {
		st, _ := f.Root.SessionStats(session)
		return st.FleetP
	}
	run(10, [2]int{2, 2})

	joined := make(chan error, 1)
	late, err := testDial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	go func() { joined <- late.Join(session, 2) }()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if st, ok := f.Leaves[0].Server().SessionStats(session); ok && st.Pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late joiner never parked as pending on leaf 0")
		}
	}
	run(1, [2]int{3, 2}) // the admitting boundary
	if err := <-joined; err != nil {
		t.Fatalf("late join: %v", err)
	}
	if late.Participants() != 3 || late.Episode() != ep {
		t.Fatalf("late joiner admitted with p %d at episode %d, want p 3 at episode %d", late.Participants(), late.Episode(), ep)
	}
	members = append(members, member{late, 0})
	run(10, [2]int{3, 2})
	if got := fleetP(); got != 5 {
		t.Errorf("fleet p = %d after the admission, want 5", got)
	}

	// Member 0 has awaited every episode so far, so its Leave lands between
	// episodes: the session arrives at the next one on its behalf, and that
	// episode's boundary drops it.
	if err := members[0].c.Leave(); err != nil {
		t.Fatal(err)
	}
	members = members[1:]
	run(1, [2]int{2, 2})
	run(10, [2]int{2, 2})
	if got := fleetP(); got != 4 {
		t.Errorf("fleet p = %d after the leave, want 4", got)
	}
	for _, m := range members {
		m.c.Leave()
	}
}
