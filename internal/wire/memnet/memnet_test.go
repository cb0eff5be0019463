package memnet

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"softbarrier/internal/wire"
)

// TestMemNetRoundTrip drives a full frame exchange through a memnet
// listener: the same codec path the netbarrier stack runs, minus TCP.
func TestMemNetRoundTrip(t *testing.T) {
	n := New()
	ln, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	want := wire.Frame{Type: wire.TypeArriveData, Episode: 7, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		fc := wire.NewFrameConn(conn)
		f, err := fc.ReadFrame()
		if err != nil {
			done <- err
			return
		}
		if f.Type != want.Type || f.Episode != want.Episode || !bytes.Equal(f.Data, want.Data) {
			done <- errors.New("frame mangled in transit")
			return
		}
		done <- fc.WriteFrame(wire.Frame{Type: wire.TypeRelease, Episode: 7, P: 2, Degree: 2})
	}()

	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := wire.NewFrameConn(conn)
	if err := fc.WriteFrame(want); err != nil {
		t.Fatal(err)
	}
	rel, err := fc.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if rel.Type != wire.TypeRelease || rel.Episode != 7 {
		t.Fatalf("got %s episode %d; want release of episode 7", wire.FrameName(rel.Type), rel.Episode)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestMemNetEphemeralAddrsDistinct(t *testing.T) {
	n := New()
	a, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if a.Addr().String() == b.Addr().String() {
		t.Fatalf("two ephemeral listeners share address %s", a.Addr())
	}
	if _, err := n.Listen(a.Addr().String()); err == nil {
		t.Fatal("rebinding a bound address succeeded")
	}
	a.Close()
	if _, err := n.Listen(a.Addr().String()); err != nil {
		t.Fatalf("rebinding after close: %v", err)
	}
	_ = b
}

func TestMemNetDialRefused(t *testing.T) {
	n := New()
	if _, err := n.Dial("nobody:1", time.Second); err == nil {
		t.Fatal("dialing an unbound address succeeded")
	}
}

// TestMemNetReadDeadline checks both expiry while blocked and the
// deadline-in-the-past unblock that cancellation relies on.
func TestMemNetReadDeadline(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		_ = c // never writes
	}()
	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 1)
	start := time.Now()
	_, err = conn.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read error = %v; want deadline exceeded", err)
	}
	if since := time.Since(start); since > time.Second {
		t.Fatalf("deadline took %v to fire", since)
	}
	var ne interface{ Timeout() bool }
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("deadline error %v is not a net timeout", err)
	}

	// Unblock a read already in flight by setting a past deadline.
	conn.SetReadDeadline(time.Time{})
	got := make(chan error, 1)
	go func() {
		_, err := conn.Read(buf)
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	conn.SetReadDeadline(time.Unix(0, 1))
	select {
	case err := <-got:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("unblocked read error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("past deadline did not unblock the pending read")
	}
}

// TestMemNetBackpressure: a reader that stops draining blocks the writer,
// whose write deadline then fires — the semantics the server's fan-out
// write timeout depends on.
func TestMemNetBackpressure(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted // peer exists but never reads

	conn.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
	chunk := make([]byte, 64<<10)
	var total int
	for {
		m, err := conn.Write(chunk)
		total += m
		if err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("write error = %v; want deadline exceeded", err)
			}
			break
		}
		if total > 64<<20 {
			t.Fatal("wrote 64 MiB into an unread connection; no backpressure")
		}
	}
}

// TestMemNetCloseSemantics: peer reads drain buffered bytes then see EOF;
// writes into a closed connection fail.
func TestMemNetCloseSemantics(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted

	if _, err := conn.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if string(got) != "tail" {
		t.Fatalf("drained %q; want %q", got, "tail")
	}
	// Like TCP, the first write racing the peer's close is accepted (the
	// kernel buffers it; the RST comes back after) — the second fails.
	if _, err := server.Write([]byte("x")); err != nil {
		t.Fatalf("first write after peer close: %v; want TCP-like buffered success", err)
	}
	if _, err := server.Write([]byte("x")); err == nil {
		t.Fatal("second write to a closed peer succeeded")
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatal("write on a closed conn succeeded")
	}
}

// TestMemNetConcurrentConns runs many connections at once to shake out
// races in the namespace and pipes (meaningful under -race).
func TestMemNetConcurrentConns(t *testing.T) {
	n := New()
	ln, _ := n.Listen("x:0")
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c) // echo
			}()
		}
	}()
	const conns = 32
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial(ln.Addr().String(), 5*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := bytes.Repeat([]byte{byte(i)}, 1024)
			go c.Write(msg)
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Errorf("conn %d: %v", i, err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("conn %d: echo mangled", i)
			}
		}(i)
	}
	wg.Wait()
}

// pair returns the two ends of one fresh connection.
func pair(t testing.TB) (client, server wire.Conn) {
	t.Helper()
	n := New()
	ln, err := n.Listen("x:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	client, err = n.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	server = <-accepted
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// TestMemNetDeadlineZeroAllocs: a deadline set ahead of an operation that
// does not block is a stored value — no timer, no allocation. The frame
// path sets one per write on the leaf link, so anything else would put
// memnet's own cost into every episode measured over it.
func TestMemNetDeadlineZeroAllocs(t *testing.T) {
	client, _ := pair(t)
	avg := testing.AllocsPerRun(100, func() {
		client.SetWriteDeadline(time.Now().Add(10 * time.Second))
		client.SetReadDeadline(time.Now().Add(10 * time.Second))
	})
	if avg != 0 {
		t.Fatalf("setting deadlines on an idle connection allocated %.2f times/op, want 0", avg)
	}
}

// TestMemNetDeadlineMovedWhileBlocked: a read already blocked under one
// deadline must fire at the deadline it is moved to, later or earlier —
// the blocked operation owns the timer, so a Set has to make it re-arm.
func TestMemNetDeadlineMovedWhileBlocked(t *testing.T) {
	for _, tc := range []struct {
		name         string
		first, moved time.Duration
	}{
		{"extended", 50 * time.Millisecond, 300 * time.Millisecond},
		{"shortened", 10 * time.Second, 100 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, _ := pair(t) // the peer never writes
			start := time.Now()
			client.SetReadDeadline(start.Add(tc.first))
			got := make(chan error, 1)
			go func() {
				_, err := client.Read(make([]byte, 1))
				got <- err
			}()
			time.Sleep(20 * time.Millisecond) // let the read block and arm its timer
			client.SetReadDeadline(start.Add(tc.moved))
			select {
			case err := <-got:
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("read error = %v; want deadline exceeded", err)
				}
				if since := time.Since(start); since < tc.moved || since > tc.moved+2*time.Second {
					t.Fatalf("read failed after %v; want the moved deadline, %v", since, tc.moved)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("moved deadline never fired")
			}
		})
	}
}

// TestMemNetClearedDeadlineStopsTimer: a read that blocked under a far
// deadline armed the side's timer; once it has completed and the deadline
// is cleared, the timer must already be stopped rather than wait in the
// runtime's timer heap until the old deadline passes.
func TestMemNetClearedDeadlineStopsTimer(t *testing.T) {
	client, server := pair(t)
	rd := client.(*conn).rd
	client.SetReadDeadline(time.Now().Add(time.Hour))
	go func() {
		for { // write only once the read has blocked and armed the timer
			rd.mu.Lock()
			armed := rd.r.timer != nil
			rd.mu.Unlock()
			if armed {
				break
			}
			time.Sleep(time.Millisecond)
		}
		server.Write([]byte{1})
	}()
	if _, err := client.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Time{})
	if rd.r.timer.Stop() {
		t.Fatal("clearing the deadline left the blocked read's timer armed")
	}
}

// TestMemNetTryWrite: the non-blocking write takes what fits and says how
// much, and treats a closed peer exactly as Write does — one write
// accepted into the void, then reset.
func TestMemNetTryWrite(t *testing.T) {
	client, server := pair(t) // the server never reads
	tw := wire.TryWriterOf(client)
	if tw == nil {
		t.Fatal("memnet connections must offer TryWrite")
	}
	chunk := make([]byte, 100<<10)
	var total int
	for i := 0; ; i++ {
		n, err := tw.TryWrite(chunk) // a blocking write would hang the test here
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if n < len(chunk) {
			break
		}
		if i > 100 {
			t.Fatalf("wrote %d bytes into an unread connection; no backpressure", total)
		}
	}
	if n, err := tw.TryWrite(chunk); n != 0 || err != nil {
		t.Fatalf("TryWrite on a full pipe = %d, %v; want 0, nil", n, err)
	}
	// What it reported written is what arrives.
	client.Close()
	if got, err := io.Copy(io.Discard, server); err != nil || int(got) != total {
		t.Fatalf("drained %d bytes, %v; want %d", got, err, total)
	}

	// Closed peer: grace, then reset.
	client, server = pair(t)
	tw = wire.TryWriterOf(server)
	client.Close()
	if n, err := tw.TryWrite([]byte("xy")); n != 2 || err != nil {
		t.Fatalf("first TryWrite after peer close = %d, %v; want TCP-like buffered success", n, err)
	}
	if _, err := tw.TryWrite([]byte("x")); err == nil {
		t.Fatal("second TryWrite to a closed peer succeeded")
	}
	if _, err := wire.TryWriterOf(client).TryWrite([]byte("x")); err == nil {
		t.Fatal("TryWrite on a closed conn succeeded")
	}
}

// framePipe returns one pass over a FrameConn pair on a fresh memnet
// connection: an Arrive, a Release and a Result frame, each written and
// then read back on the calling goroutine — what bench's
// memnet.pipe_us_per_episode times, inside this module.
func framePipe(t testing.TB) (pass func(), frames int) {
	client, server := pair(t)
	tx, rx := wire.NewFrameConn(client), wire.NewFrameConn(server)
	mix := []wire.Frame{
		{Type: wire.TypeArrive, Episode: 1 << 20},
		{Type: wire.TypeRelease, Episode: 1 << 20, Degree: 4, P: 32, Epoch: 3, Spread: 250e-6, Sigma: 80e-6},
		{Type: wire.TypeResult, Episode: 1 << 20, Degree: 4, P: 32, Epoch: 3, Spread: 250e-6, Sigma: 80e-6, Data: make([]byte, 8)},
	}
	return func() {
		for _, f := range mix {
			if err := tx.WriteFrame(f); err != nil {
				t.Fatal(err)
			}
			if got, err := rx.ReadFrame(); err != nil || got.Type != f.Type || got.Episode != f.Episode {
				t.Fatalf("read back %+v, %v", got, err)
			}
		}
	}, len(mix)
}

// TestMemNetFramePipeZeroAllocs: a warm FrameConn pair moves frames over
// memnet without allocating, on either half or in the pipe between them.
func TestMemNetFramePipeZeroAllocs(t *testing.T) {
	pass, _ := framePipe(t)
	pass()
	if avg := testing.AllocsPerRun(100, pass); avg != 0 {
		t.Fatalf("a warm frame pipe allocated %.2f times per pass, want 0", avg)
	}
}

// BenchmarkFramePipe reports ns per frame written and read through the
// pair (pin it and compare interleaved: `taskset -c 0 go test -run '^$'
// -bench FramePipe -benchtime 200000x ./internal/wire/memnet`).
func BenchmarkFramePipe(b *testing.B) {
	pass, frames := framePipe(b)
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*frames), "ns/frame")
}
