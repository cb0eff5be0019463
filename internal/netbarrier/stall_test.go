package netbarrier

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"softbarrier"
	"softbarrier/internal/wire"
)

// stallConn wraps a server-side connection so a test can freeze its write
// path: while stalled, TryWrite reports that the socket would block and
// Write blocks — honoring SetWriteDeadline, so the server's fan-out write
// still times out per the normal semantics — and reads pass through
// untouched. Unstalled it is the wrapped connection, inline write
// included, so the stall tests run the production path: inline attempt,
// remainder goroutine, deadline.
type stallConn struct {
	net.Conn
	tw       wire.TryWriter // the wrapped connection's own
	mu       sync.Mutex
	stalled  bool
	deadline time.Time
}

func (c *stallConn) TryWrite(p []byte) (int, error) {
	c.mu.Lock()
	stalled := c.stalled
	c.mu.Unlock()
	if stalled || c.tw == nil {
		return 0, nil
	}
	return c.tw.TryWrite(p)
}

func (c *stallConn) SetStalled(v bool) {
	c.mu.Lock()
	c.stalled = v
	c.mu.Unlock()
}

func (c *stallConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *stallConn) Write(p []byte) (int, error) {
	for {
		c.mu.Lock()
		stalled, deadline := c.stalled, c.deadline
		c.mu.Unlock()
		if !stalled {
			return c.Conn.Write(p)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		time.Sleep(time.Millisecond)
	}
}

// stallListener wraps every accepted connection in a stallConn and records
// them so the test can pick a victim by remote address.
type stallListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*stallConn
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &stallConn{Conn: c, tw: wire.TryWriterOf(c)}
	l.mu.Lock()
	l.conns = append(l.conns, sc)
	l.mu.Unlock()
	return sc, nil
}

// connFor returns the wrapped server-side conn whose remote address is
// addr (a client conn's local address).
func (l *stallListener) connFor(addr string) *stallConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		if c.RemoteAddr().String() == addr {
			return c
		}
	}
	return nil
}

// startStallServer is startServer over a stallListener, on the in-process
// test network. The TCP variant below keeps one stall scenario on real
// sockets.
func startStallServer(t *testing.T, opt Options) (addr string, ln *stallListener) {
	t.Helper()
	return startStallServerOn(t, testNet, "mem:0", opt)
}

func startStallServerOn(t *testing.T, tr wire.Transport, bind string, opt Options) (addr string, ln *stallListener) {
	t.Helper()
	raw, err := tr.Listen(bind)
	if err != nil {
		t.Fatal(err)
	}
	ln = &stallListener{Listener: raw}
	serveOn(t, ln, opt)
	return raw.Addr().String(), ln
}

// TestStalledSocketReleaseFanOut is the regression gate for the concurrent
// release fan-out: with one member's server-side socket frozen, the other
// members' Release frames must arrive within episode time — not after the
// stalled member's write deadline, which is what the old sequential
// broadcast cost them — and the stalled member must still poison the
// session once its write times out.
func TestStalledSocketReleaseFanOut(t *testing.T) {
	const (
		p            = 3
		writeTimeout = 3 * time.Second
		// A loopback episode completes in microseconds; a whole second of
		// margin still proves the continuing members did not sit behind the
		// victim's 3s write deadline.
		promptly = 1 * time.Second
	)
	addr, ln := startStallServer(t, Options{WriteTimeout: writeTimeout, Watchdog: 30 * time.Second})

	victim := dialJoin(t, addr, "stall", p, 0)
	defer victim.Close()
	c1 := dialJoin(t, addr, "stall", p, 1)
	defer c1.Close()
	c2 := dialJoin(t, addr, "stall", p, 2)
	defer c2.Close()

	// One clean episode so every connection is fully set up.
	var wg sync.WaitGroup
	for _, c := range []*Client{victim, c1, c2} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Wait(); err != nil {
				t.Errorf("warmup: %v", err)
			}
		}(c)
	}
	wg.Wait()

	sc := ln.connFor(localAddr(victim))
	if sc == nil {
		t.Fatal("no server-side conn for the victim client")
	}
	sc.SetStalled(true)

	// Everyone arrives; the victim's release write will hang on its frozen
	// socket, but episode completion must still release the others.
	if err := victim.Arrive(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var others sync.WaitGroup
	lat := make([]time.Duration, 2)
	errs := make([]error, 2)
	for i, c := range []*Client{c1, c2} {
		others.Add(1)
		go func(i int, c *Client) {
			defer others.Done()
			_, errs[i] = c.Wait()
			lat[i] = time.Since(start)
		}(i, c)
	}
	others.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("continuing member %d: %v", i+1, errs[i])
		}
		if lat[i] > promptly {
			t.Fatalf("continuing member %d released after %v; want ≤ %v (fan-out must not serialize behind the stalled socket's %v deadline)",
				i+1, lat[i], promptly, writeTimeout)
		}
	}

	// The stalled member's write eventually times out and poisons the
	// session per the existing semantics: the continuing members' next Wait
	// surfaces the poison cause.
	sawPoison := make(chan error, 2)
	for _, c := range []*Client{c1, c2} {
		go func(c *Client) {
			_, err := c.Wait()
			sawPoison <- err
		}(c)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-sawPoison:
			if err == nil {
				t.Fatal("episode after the stall released cleanly; want the session poisoned by the victim's write timeout")
			}
		case <-time.After(writeTimeout + 5*time.Second):
			t.Fatal("timed out waiting for the stall to poison the session")
		}
	}
}

// TestPoisonedPendingJoinerFailsFast is the regression test for the
// deferred-JoinResp poison path: a pending (elastic, not yet admitted)
// joiner whose refusal cannot be written must have its connection closed so
// the client fails fast, instead of silently hanging until its own join
// timeout.
func TestPoisonedPendingJoinerFailsFast(t *testing.T) {
	var logMu sync.Mutex
	var logLines []string
	addr, ln := startStallServer(t, Options{
		Elastic: true, WriteTimeout: 500 * time.Millisecond, Watchdog: 30 * time.Second,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logLines = append(logLines, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})

	// Fill the initial cohort so the next join parks on the pending list.
	a := dialJoin(t, addr, "pend", 1, -1)
	defer a.Close()

	pc, err := testDial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	joinErr := make(chan error, 1)
	go func() { joinErr <- pc.Join("pend", 1) }()

	// Wait until the server has parked the pending joiner, then freeze its
	// socket so the refusal write must fail.
	deadline := time.Now().Add(5 * time.Second)
	var sc *stallConn
	for time.Now().Before(deadline) {
		if sc = ln.connFor(localAddr(pc)); sc != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sc == nil {
		t.Fatal("no server-side conn for the pending joiner")
	}
	time.Sleep(50 * time.Millisecond) // let the JoinReq reach the session's pending list
	sc.SetStalled(true)

	// Poison the session: the lone member vanishing mid-session does it.
	a.Close()

	// The pending client must fail fast — refusal write times out after
	// 500ms, then the server closes the connection — rather than hang for
	// the full join timeout (10s default).
	select {
	case err := <-joinErr:
		if err == nil {
			t.Fatal("pending join succeeded on a poisoned session")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending joiner hung after session poison; want its connection closed so Join fails fast")
	}
	// And the failure is no longer silent: the refusal write's error is on
	// the server's log.
	logMu.Lock()
	defer logMu.Unlock()
	for _, line := range logLines {
		if strings.Contains(line, "failed to refuse pending client") {
			return
		}
	}
	t.Fatalf("no 'failed to refuse pending client' log line; got %q", logLines)
}

// TestStalledSocketPoisonCause checks the stalled member itself: once its
// write deadline expires the session poisons with an "unreachable" cause,
// and the stalled member — whose socket only ever froze server-side
// writes — sees the connection die rather than a clean release. It is the
// stall suite's TCP smoke: the same scenario the memnet tests above run,
// on real loopback sockets.
func TestStalledSocketPoisonCause(t *testing.T) {
	const p = 2
	addr, ln := startStallServerOn(t, wire.DefaultTCP, "127.0.0.1:0",
		Options{WriteTimeout: 500 * time.Millisecond, Watchdog: 30 * time.Second})
	victim := dialJoin(t, addr, "cause", p, 0)
	defer victim.Close()
	peer := dialJoin(t, addr, "cause", p, 1)
	defer peer.Close()

	var wg sync.WaitGroup
	for _, c := range []*Client{victim, peer} {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Wait(); err != nil {
				t.Errorf("warmup: %v", err)
			}
		}(c)
	}
	wg.Wait()

	sc := ln.connFor(localAddr(victim))
	if sc == nil {
		t.Fatal("no server-side conn for the victim client")
	}
	sc.SetStalled(true)

	if err := victim.Arrive(); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Wait(); err != nil {
		t.Fatalf("peer's release should beat the stall: %v", err)
	}
	// The peer's next wait surfaces the poison the victim's timed-out write
	// caused.
	if _, err := peer.Wait(); err == nil {
		t.Fatal("want the victim's write timeout to poison the session")
	} else if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("poison cause = %v; want the victim reported unreachable", err)
	}
}

// TestNameReuseWhilePoisonUnwinds is the regression test for a poisoned
// session holding its name until its last cause frame was written: a
// member that read the cause and rejoined the name at once was refused
// with "session is shutting down". Each waiter here rejoins from inside
// its own goroutine the instant Wait returns the cause, while a third
// member's frozen socket keeps the poison fan-out unwinding for a whole
// write timeout — the window that used to be a few microseconds wide is
// held open, so the old order fails every time, not one run in ten.
func TestNameReuseWhilePoisonUnwinds(t *testing.T) {
	const p = 4
	addr, ln := startStallServer(t, Options{WriteTimeout: 500 * time.Millisecond, Watchdog: 30 * time.Second})
	clients := make([]*Client, p)
	for i := range clients {
		clients[i] = dialJoin(t, addr, "reuse", p, i)
		defer clients[i].Close()
	}
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

	// Member 0 arrives but will not be told: its server-side socket takes
	// no more writes. Members 1 and 2 wait; member 3 dies without arriving.
	sc := ln.connFor(localAddr(clients[0]))
	if sc == nil {
		t.Fatal("no server-side conn for member 0")
	}
	sc.SetStalled(true)
	if err := clients[0].Arrive(); err != nil {
		t.Fatal(err)
	}
	for _, c := range clients[1:3] {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Wait(); err == nil {
				t.Error("waiter returned success from a poisoned episode")
				return
			}
			again, err := testDial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			// Kept open until the test ends: closing it here would poison
			// the successor session just as the other waiter joins it, and
			// that refusal (1 run in 200) is the test's doing, not the
			// server's.
			t.Cleanup(func() { again.Close() })
			if err := again.Join("reuse", 2); err != nil {
				t.Errorf("rejoining the name the instant the cause arrived: %v", err)
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters' arrivals land first
	clients[3].Close()
	wg.Wait()
}

// TestStalledSocketStaleWriteDeadline: the blocking remainder write arms a
// write deadline, and a kernel socket refuses even a non-blocking write
// once an armed deadline has expired. A stall that clears in time must
// therefore leave no deadline behind: the episode after it — later than
// the write timeout — goes out inline and must succeed. TCP, because that
// is where an expired deadline bites.
func TestStalledSocketStaleWriteDeadline(t *testing.T) {
	const (
		p            = 2
		writeTimeout = 300 * time.Millisecond
	)
	addr, ln := startStallServerOn(t, wire.DefaultTCP, "127.0.0.1:0",
		Options{WriteTimeout: writeTimeout, Watchdog: 30 * time.Second})
	victim := dialJoin(t, addr, "stale", p, 0)
	defer victim.Close()
	peer := dialJoin(t, addr, "stale", p, 1)
	defer peer.Close()
	episode := func(what string) {
		t.Helper()
		errs := make(chan error, p)
		for _, c := range []*Client{victim, peer} {
			go func(c *Client) {
				_, err := c.Wait()
				errs <- err
			}(c)
		}
		for i := 0; i < p; i++ {
			select {
			case err := <-errs:
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: no release", what)
			}
		}
	}
	episode("warmup")

	sc := ln.connFor(localAddr(victim))
	if sc == nil {
		t.Fatal("no server-side conn for the victim client")
	}
	// The victim's release finds its socket stalled and goes to the
	// blocking path, which the un-stall lets through well inside the
	// timeout.
	sc.SetStalled(true)
	if err := victim.Arrive(); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Wait(); err != nil {
		t.Fatalf("peer's release should beat the stall: %v", err)
	}
	sc.SetStalled(false)
	if _, err := victim.Await(); err != nil {
		t.Fatalf("release through the blocking path: %v", err)
	}

	time.Sleep(writeTimeout + 100*time.Millisecond) // the deadline that write armed is now in the past
	episode("episode after the stale deadline")
}

// partialListener wraps every accepted connection so that its inline
// write takes at most the first 7 bytes of a frame — a socket buffer
// that is always nearly full.
type partialListener struct{ net.Listener }

type partialConn struct {
	net.Conn
	tw wire.TryWriter
}

func (l partialListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &partialConn{Conn: c, tw: wire.TryWriterOf(c)}, nil
}

func (c *partialConn) TryWrite(p []byte) (int, error) {
	return c.tw.TryWrite(p[:min(7, len(p))])
}

// TestStalledSocketPartialInlineWrite: when a socket takes only part of a
// frame inline, the remainder goroutine must finish that frame before
// any other frame touches the socket. Every release here is cut after 7
// bytes — mid-header — on every member, for 200 collective episodes, and
// each must decode intact, in order, carrying that episode's sum.
func TestStalledSocketPartialInlineWrite(t *testing.T) {
	op, ok := softbarrier.OpByName("sum-u64")
	if !ok {
		t.Fatal("sum-u64 op not registered")
	}
	for _, tr := range []struct {
		name string
		tr   wire.Transport
		bind string
	}{{"memnet", testNet, "mem:0"}, {"tcp", wire.DefaultTCP, "127.0.0.1:0"}} {
		t.Run(tr.name, func(t *testing.T) {
			raw, err := tr.tr.Listen(tr.bind)
			if err != nil {
				t.Fatal(err)
			}
			serveOn(t, partialListener{raw}, Options{Op: opPtr(op), Watchdog: 30 * time.Second})

			const p, episodes = 3, 200
			var wg sync.WaitGroup
			for id := 0; id < p; id++ {
				c := dialJoin(t, raw.Addr().String(), "partial", p, id)
				defer c.Close()
				wg.Add(1)
				go func(id int, c *Client) {
					defer wg.Done()
					in := make([]byte, op.Width)
					for ep := uint64(0); ep < episodes; ep++ {
						binary.BigEndian.PutUint64(in, (ep+1)*uint64(id+1))
						if err := c.ArriveReduce(in); err != nil {
							t.Errorf("client %d episode %d: %v", id, ep, err)
							return
						}
						rel, err := c.Await()
						if err != nil {
							t.Errorf("client %d episode %d: %v", id, ep, err)
							return
						}
						if got, want := binary.BigEndian.Uint64(rel.Result), (ep+1)*(1+2+3); rel.Episode != ep || got != want {
							t.Errorf("client %d: release of episode %d carries sum %d; want episode %d, sum %d", id, rel.Episode, got, ep, want)
							return
						}
					}
				}(id, c)
			}
			wg.Wait()
		})
	}
}
