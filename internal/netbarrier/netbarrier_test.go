package netbarrier

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/wire"
	"softbarrier/internal/wire/memnet"
)

// testNet is the in-process memnet the protocol-logic tests run on: no
// kernel sockets, no ephemeral-port collisions, a fraction of the
// wall-clock. Its addresses look like "mem:<port>", which is how testDial
// routes them back through it; the per-suite TCP smokes and the
// zero-alloc gates use startTCPServer and real loopback sockets.
var testNet = memnet.New()

// startServer runs a server on the in-process test network and returns
// its address. The server is torn down with the test.
func startServer(t testing.TB, opt Options) (addr string, srv *Server) {
	t.Helper()
	return startServerOn(t, testNet, "mem:0", opt)
}

// startTCPServer runs a server on an ephemeral loopback TCP port: the
// production transport, for the per-suite smokes and the alloc gates.
func startTCPServer(t testing.TB, opt Options) (addr string, srv *Server) {
	t.Helper()
	return startServerOn(t, wire.DefaultTCP, "127.0.0.1:0", opt)
}

func startServerOn(t testing.TB, tr wire.Transport, bind string, opt Options) (addr string, srv *Server) {
	t.Helper()
	ln, err := tr.Listen(bind)
	if err != nil {
		t.Fatal(err)
	}
	return ln.Addr().String(), serveOn(t, ln, opt)
}

// serveOn runs a server on ln — a transport's listener, or a test's
// wrapper around one — and tears it down with the test.
func serveOn(t testing.TB, ln net.Listener, opt Options) *Server {
	srv := NewServer(opt)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv
}

// testDial routes an address to the transport that owns it: testNet for
// memnet addresses, TCP otherwise. It records the client's local address
// in localAddrs.
func testDial(addr string) (*Client, error) {
	var d wire.Dialer = wire.DefaultTCP
	if strings.HasPrefix(addr, "mem:") {
		d = testNet
	}
	conn, err := d.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	localAddrs.Store(c, conn.LocalAddr().String())
	return c, nil
}

// localAddrs maps each client testDial made to its connection's local
// address, the address the server sees as the remote end.
var localAddrs sync.Map // *Client → string

// localAddr returns the local address of a client testDial made.
func localAddr(c *Client) string {
	a, _ := localAddrs.Load(c)
	s, _ := a.(string)
	return s
}

// dialJoin connects and joins, failing the test on any error.
func dialJoin(t testing.TB, addr, session string, p, id int) *Client {
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

func TestSessionEpisodes(t *testing.T) {
	addr, _ := startServer(t, Options{Watchdog: 5 * time.Second})
	const p, episodes = 4, 25

	var wg sync.WaitGroup
	errs := make([]error, p)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialJoin(t, addr, "episodes", p, i)
			defer c.Leave()
			if c.ID() != i {
				errs[i] = fmt.Errorf("asked for id %d, got %d", i, c.ID())
				return
			}
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
				if r.Degree < 2 || r.Degree > p {
					errs[i] = fmt.Errorf("episode %d: degree %d outside [2, %d]", ep, r.Degree, p)
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

func TestFuzzyArriveAwaitOverlap(t *testing.T) {
	addr, _ := startServer(t, Options{})
	const p = 3
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := dialJoin(t, addr, "fuzzy", p, -1)
			defer c.Leave()
			for ep := 0; ep < 10; ep++ {
				if err := c.Arrive(); err != nil {
					t.Errorf("client %d arrive: %v", i, err)
					return
				}
				// Slack work between the phases — the fuzzy-barrier shape.
				time.Sleep(time.Duration(i) * 100 * time.Microsecond)
				if _, err := c.Await(); err != nil {
					t.Errorf("client %d await: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestJoinRefusals(t *testing.T) {
	addr, _ := startServer(t, Options{})
	c0 := dialJoin(t, addr, "refuse", 2, 0)
	defer c0.Close()

	cases := []struct {
		name    string
		session string
		p, id   int
		want    string
	}{
		{"p mismatch", "refuse", 3, -1, "participants"},
		{"id taken", "refuse", 2, 0, "already taken"},
		{"id out of range", "refuse", 2, 7, "out of range"},
		{"bad p", "other", 0, -1, "participant count"},
		{"empty name", "", 2, -1, "empty session name"},
	}
	for _, tc := range cases {
		c, err := testDial(addr)
		if err != nil {
			t.Fatal(err)
		}
		err = c.JoinAs(tc.session, tc.p, tc.id)
		c.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want refusal containing %q", tc.name, err, tc.want)
		}
	}

	// The full-session refusal.
	c1 := dialJoin(t, addr, "refuse", 2, -1)
	defer c1.Close()
	c, err := testDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Join("refuse", 2)
	c.Close()
	if err == nil || !strings.Contains(err.Error(), "full") {
		t.Errorf("join of full session: got %v", err)
	}
}

// TestNewServerRejectsNegativeModelInputs: a negative model input used to
// pass NewServer and panic in the first join, inside newSession under the
// server's lock, so the join went unanswered and Close blocked on that
// lock for good. Now the server refuses the options up front.
func TestNewServerRejectsNegativeModelInputs(t *testing.T) {
	for _, opt := range []Options{
		{InitialSigma: -1}, {Tc: -1}, {ReplanEvery: -1},
		{InitialSigma: math.NaN()}, {Tc: math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewServer(ReplanEvery %d, Tc %g, InitialSigma %g) did not panic",
						opt.ReplanEvery, opt.Tc, opt.InitialSigma)
				}
			}()
			NewServer(opt)
		}()
	}
}

// TestDisconnectPoisons kills one client mid-episode and requires every
// other member to receive a poison cause naming the disconnection —
// promptly, not at some watchdog horizon.
func TestDisconnectPoisons(t *testing.T) {
	addr, _ := startServer(t, Options{Watchdog: 10 * time.Second})
	const p = 4

	clients := make([]*Client, p)
	for i := range clients {
		clients[i] = dialJoin(t, addr, "killed", p, i)
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	// One full episode so the session is warm.
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Wait(); err != nil {
				t.Errorf("warmup: %v", err)
			}
		}(c)
	}
	wg.Wait()

	// Next episode: 0..2 arrive and wait; 3 dies without arriving.
	start := time.Now()
	errsCh := make(chan error, p-1)
	for _, c := range clients[:p-1] {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			_, err := c.Wait()
			errsCh <- err
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let the others' arrivals land first
	clients[p-1].Close()
	wg.Wait()
	close(errsCh)
	for err := range errsCh {
		if err == nil {
			t.Fatal("waiter returned success from a poisoned episode")
		}
		if !strings.Contains(err.Error(), "disconnected") {
			t.Errorf("poison cause does not name the disconnect: %v", err)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("poison took %v to reach the waiters", d)
	}

	// The poisoned session retired, so its name is immediately reusable.
	c, err := testDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Join("killed", 2); err != nil {
		t.Errorf("rejoining a retired session name: %v", err)
	}
}

// TestDisconnectPoisonsUnwatchedLogged poisons a session that runs no
// watchdog, with a log installed, by one member's disconnect while the
// others are arriving at the next episode. The poison log line names who
// arrived from the session's own member records: the barrier's arrival
// counts may only be read at a quiescent point when it has no watchdog,
// and this is not one (CI runs it under -race).
func TestDisconnectPoisonsUnwatchedLogged(t *testing.T) {
	var logMu sync.Mutex
	var logged []string
	addr, _ := startServer(t, Options{Logf: func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})
	const p, warm = 4, 5
	clients := make([]*Client, p)
	for i := range clients {
		clients[i] = dialJoin(t, addr, "unwatched", p, i)
		defer clients[i].Close()
	}
	var wg sync.WaitGroup
	for _, c := range clients[:p-1] {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for {
				if _, err := c.Wait(); err != nil {
					if !strings.Contains(err.Error(), "disconnected") {
						t.Errorf("poison cause does not name the disconnect: %v", err)
					}
					return
				}
			}
		}(c)
	}
	for e := 0; e < warm; e++ {
		if _, err := clients[p-1].Wait(); err != nil {
			t.Fatal(err)
		}
	}
	clients[p-1].Close()
	wg.Wait()
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logged {
		if strings.Contains(line, fmt.Sprintf("poisoned at episode %d", warm)) && strings.Contains(line, "arrived: [") {
			return
		}
	}
	t.Errorf("no poison line for episode %d in the log %q", warm, logged)
}

// TestWatchdogStallDeliversStallError holds one member back without
// killing its connection: only the stall watchdog can catch that, and the
// StallError it poisons with must cross the wire with the missing ids
// intact and within the watchdog deadline.
func TestWatchdogStallDeliversStallError(t *testing.T) {
	const watchdog = 300 * time.Millisecond
	addr, _ := startServer(t, Options{Watchdog: watchdog})
	const p = 4

	clients := make([]*Client, p)
	for i := range clients {
		clients[i] = dialJoin(t, addr, "stall", p, i)
	}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	errsCh := make(chan error, p-1)
	for _, c := range clients[:p-1] {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			_, err := c.Wait()
			errsCh <- err
		}(c)
	}
	// Client 3 never arrives; it just sits on a healthy connection.
	wg.Wait()
	waited := time.Since(start)
	close(errsCh)
	for err := range errsCh {
		var stall *softbarrier.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("want *StallError across the wire, got %v", err)
		}
		if len(stall.Missing) != 1 || stall.Missing[0] != 3 {
			t.Errorf("StallError.Missing = %v, want [3]", stall.Missing)
		}
		if stall.Waited < watchdog {
			t.Errorf("StallError.Waited = %v, below the %v deadline", stall.Waited, watchdog)
		}
	}
	// "Within the watchdog deadline": the detector needs one deadline to
	// elapse plus its polling slop; anything near that bound is on time.
	if waited > 4*watchdog+time.Second {
		t.Errorf("stall delivery took %v with a %v watchdog", waited, watchdog)
	}

	// The idle-session guard: a session with no episode in flight must
	// never be stall-poisoned, however long it idles.
	idle := dialJoin(t, addr, "idle", 1, -1)
	defer idle.Leave()
	time.Sleep(3 * watchdog)
	if _, err := idle.Wait(); err != nil {
		t.Errorf("idle session poisoned: %v", err)
	}
}

// TestReplanAcceptance is the tentpole acceptance run: 64 loopback
// clients, 1000 consecutive episodes, with an arrival-jitter phase in the
// middle that moves the measured σ enough for the planner to change the
// tree degree mid-run. Run it with -race to check the whole stack.
func TestReplanAcceptance(t *testing.T) {
	const (
		p        = 64
		episodes = 1000
		jitterLo = 350 // episodes [jitterLo, jitterHi) sleep before arriving
		jitterHi = 500
	)
	addr, srv := startServer(t, Options{
		Watchdog:     10 * time.Second,
		ReplanEvery:  4,
		InitialSigma: 0,
	})
	_ = srv

	type result struct {
		degrees []int // degree sequence as seen in Release frames
		err     error
	}
	results := make([]result, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			c, err := testDial(addr)
			if err != nil {
				res.err = err
				return
			}
			if err := c.JoinAs("acceptance", p, i); err != nil {
				res.err = err
				c.Close()
				return
			}
			defer c.Leave()
			rng := rand.New(rand.NewSource(int64(i) * 7919))
			last := -1
			for ep := 0; ep < episodes; ep++ {
				if ep >= jitterLo && ep < jitterHi {
					// Load imbalance: spread arrivals over ~2ms. σ of
					// U(0, 2ms) ≈ 580µs, which the model answers with a
					// much wider tree than the near-simultaneous phases.
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				}
				r, err := c.Wait()
				if err != nil {
					res.err = fmt.Errorf("episode %d: %w", ep, err)
					return
				}
				if r.Episode != uint64(ep) {
					res.err = fmt.Errorf("episode %d released as %d", ep, r.Episode)
					return
				}
				if r.Degree != last {
					res.degrees = append(res.degrees, r.Degree)
					last = r.Degree
				}
			}
		}(i)
	}
	wg.Wait()

	for i := range results {
		if results[i].err != nil {
			t.Fatalf("client %d: %v", i, results[i].err)
		}
	}
	// Every client saw the same ordered degree history (frames are a total
	// order per session), and it changed at least once mid-run.
	degrees := results[0].degrees
	t.Logf("degree history over %d episodes: %v", episodes, degrees)
	for i := 1; i < p; i++ {
		if fmt.Sprint(results[i].degrees) != fmt.Sprint(degrees) {
			t.Fatalf("client %d saw degree history %v, client 0 saw %v", i, results[i].degrees, degrees)
		}
	}
	if len(degrees) < 2 {
		t.Fatalf("no mid-run degree re-plan: degree history %v", degrees)
	}
}

// TestAwaitCtxCancel checks the client-side cancellation path: the
// abandoned wait reports the context error and the connection teardown
// poisons the session for everyone else.
func TestAwaitCtxCancel(t *testing.T) {
	addr, _ := startServer(t, Options{})
	const p = 2
	c0 := dialJoin(t, addr, "cancel", p, 0)
	defer c0.Close()
	c1 := dialJoin(t, addr, "cancel", p, 1)
	defer c1.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c0.WaitCtx(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait returned %v", err)
	}
	// The cancelled client abandons the session entirely. c0's Arrive was
	// already in, so the in-flight episode may legitimately complete for
	// c1 — but after the disconnect no further episode can.
	c0.Close()
	if _, err := c1.Wait(); err == nil {
		if _, err := c1.Wait(); err == nil {
			t.Fatal("peer of a departed participant completed an episode without it")
		}
	}
}

// TestClientPoisonCarriesIdentity pins the member-initiated poison path:
// Client.Poison's cause must come out of the other members' waits with
// errors.Is/As identity intact — a sentinel stays Is-able, a *StallError
// stays As-able with its fields. (Regression: the server once treated a
// member's Poison frame as a protocol violation, destroying the cause.)
func TestClientPoisonCarriesIdentity(t *testing.T) {
	addr, _ := startServer(t, Options{Watchdog: 30 * time.Second})

	t.Run("sentinel", func(t *testing.T) {
		a := dialJoin(t, addr, "poison-is", 2, 0)
		defer a.Close()
		b := dialJoin(t, addr, "poison-is", 2, 1)
		defer b.Close()
		errCh := make(chan error, 1)
		go func() {
			_, err := b.Wait()
			errCh <- err
		}()
		time.Sleep(10 * time.Millisecond)
		if err := a.Poison(context.Canceled); err != nil {
			t.Fatalf("poison: %v", err)
		}
		if err := <-errCh; !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter got %v; want errors.Is(err, context.Canceled)", err)
		}
	})

	t.Run("stall-error", func(t *testing.T) {
		a := dialJoin(t, addr, "poison-as", 2, 0)
		defer a.Close()
		b := dialJoin(t, addr, "poison-as", 2, 1)
		defer b.Close()
		errCh := make(chan error, 1)
		go func() {
			_, err := b.Wait()
			errCh <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cause := &softbarrier.StallError{Missing: []int{3, 7}, Waited: 42 * time.Second}
		if err := a.Poison(cause); err != nil {
			t.Fatalf("poison: %v", err)
		}
		err := <-errCh
		var stall *softbarrier.StallError
		if !errors.As(err, &stall) {
			t.Fatalf("waiter got %v; want an errors.As-able *StallError", err)
		}
		if len(stall.Missing) != 2 || stall.Missing[0] != 3 || stall.Missing[1] != 7 || stall.Waited != 42*time.Second {
			t.Fatalf("StallError lost fields in transit: %+v", stall)
		}
	})
}
