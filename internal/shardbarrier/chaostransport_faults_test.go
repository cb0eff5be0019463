package shardbarrier

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"softbarrier/internal/wire"
	"softbarrier/internal/wire/memnet"
)

// TestScheduleDeterminism: the schedule is a pure function of (seed,
// conn, direction) — two transports with the same seed and config agree
// byte for byte, and a different seed diverges.
func TestScheduleDeterminism(t *testing.T) {
	cfg := Config{
		WriteLatency: time.Millisecond, WriteJitter: 5 * time.Millisecond,
		ReadLatency: time.Millisecond, ReadJitter: 3 * time.Millisecond,
		ResetProb: 0.05, TruncateProb: 0.05, StallProb: 0.1,
		PartitionProb: 0.02, SlowLorisProb: 0.1,
	}
	a := New(memnet.New(), 42, cfg)
	b := New(memnet.New(), 42, cfg)
	c := New(memnet.New(), 43, cfg)
	for conn := 0; conn < 8; conn++ {
		for _, write := range []bool{false, true} {
			sa := a.Schedule(conn, write, 512)
			sb := b.Schedule(conn, write, 512)
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("conn %d write=%v: same seed, different schedules", conn, write)
			}
			if reflect.DeepEqual(sa, c.Schedule(conn, write, 512)) {
				t.Fatalf("conn %d write=%v: different seeds, identical schedules", conn, write)
			}
		}
	}
	// The fault mix actually appears in a long enough schedule.
	seen := map[string]bool{}
	for conn := 0; conn < 8; conn++ {
		for _, ev := range a.Schedule(conn, true, 512) {
			seen[kindOf(ev)] = true
		}
		for _, ev := range a.Schedule(conn, false, 512) {
			seen[kindOf(ev)] = true
		}
	}
	for _, kind := range []string{"latency", "reset", "truncate", "stall", "partition", "slowloris"} {
		if !seen[kind] {
			t.Errorf("no %s event in 8×512-op schedule at these probabilities", kind)
		}
	}
}

func kindOf(ev string) string {
	for i := 0; i < len(ev); i++ {
		if ev[i] == ' ' {
			return ev[:i]
		}
	}
	return ev
}

// TestStallHonorsWriteDeadline: an injected stall against an armed write
// deadline produces the deadline error, like a stalled TCP socket.
func TestStallHonorsWriteDeadline(t *testing.T) {
	mn := memnet.New()
	ln, _ := mn.Listen("x:0")
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		_ = c
	}()
	tr := New(mn, 1, Config{StallProb: 1, StallFor: 10 * time.Second})
	conn, err := tr.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = conn.Write([]byte("frame"))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled write error = %v; want deadline exceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stalled write held the deadline for %v", d)
	}
}

// TestTruncateBreaksFrame: the peer of a truncated write reads a strict
// prefix and then EOF — a mid-frame cut the frame decoder must reject.
func TestTruncateBreaksFrame(t *testing.T) {
	mn := memnet.New()
	ln, _ := mn.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	tr := New(mn, 7, Config{TruncateProb: 1})
	conn, err := tr.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := make([]byte, 64)
	n, err := conn.Write(payload)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("write error = %v; want ErrTruncated", err)
	}
	if n <= 0 || n >= len(payload) {
		t.Fatalf("truncated write delivered %d of %d bytes; want a strict prefix", n, len(payload))
	}
	peer := <-accepted
	fc := wire.NewFrameConn(peer)
	if _, err := fc.ReadFrame(); err == nil {
		t.Fatal("peer decoded a frame from a truncated write")
	}
}

// TestPartitionFreezesBothDirections: after an injected partition neither
// direction moves until it heals, then both do.
func TestPartitionFreezesBothDirections(t *testing.T) {
	mn := memnet.New()
	ln, _ := mn.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	tr := New(mn, 3, Config{PartitionProb: 1, PartitionFor: 300 * time.Millisecond})
	conn, err := tr.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted

	start := time.Now()
	if _, err := conn.Write([]byte("hi")); err != nil { // draws the partition, waits it out
		t.Fatal(err)
	}
	if d := time.Since(start); d < 250*time.Millisecond {
		t.Fatalf("partitioned write completed in %v; want ≥ partition length", d)
	}
	buf := make([]byte, 2)
	if _, err := peer.Read(buf); err != nil {
		t.Fatal(err)
	}
}

// TestSlowLorisTrickles: a slow-loris read delivers the stream one byte
// at a time, paced.
func TestSlowLorisTrickles(t *testing.T) {
	mn := memnet.New()
	ln, _ := mn.Listen("x:0")
	defer ln.Close()
	accepted := make(chan wire.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	tr := New(mn, 9, Config{SlowLorisProb: 1, SlowLorisPace: 5 * time.Millisecond, SlowLorisBytes: 8})
	conn, err := tr.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted
	if _, err := peer.Write(make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	start := time.Now()
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("slow-loris read returned %d bytes; want 1", n)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("slow-loris read was not paced")
	}
}

// TestResetFailsConn: an injected reset fails the op and kills the
// connection for good.
func TestResetFailsConn(t *testing.T) {
	mn := memnet.New()
	ln, _ := mn.Listen("x:0")
	defer ln.Close()
	go func() {
		c, _ := ln.Accept()
		_ = c
	}()
	tr := New(mn, 11, Config{ResetProb: 1})
	conn, err := tr.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("x")); !errors.Is(err, ErrReset) {
		t.Fatalf("write error = %v; want ErrReset", err)
	}
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Fatal("write after reset succeeded")
	}
}

// TestChaosLiveReplayDeterminism runs real traffic — a frame-speaking
// client against an echoing server over memnet, single connection,
// lockstep ops — twice with the same seed and requires the recorded
// injected-event logs and the observed episode ledgers to be identical.
// (The netbarrier-level twin of this test lives in the netbarrier suite;
// this one isolates the transport.)
func TestChaosLiveReplayDeterminism(t *testing.T) {
	run := func(seed uint64) (events []string, ledger []string) {
		mn := memnet.New()
		ln, _ := mn.Listen("x:0")
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					fc := wire.NewFrameConn(c)
					for {
						f, err := fc.ReadFrame()
						if err != nil {
							c.Close()
							return
						}
						f.Episode++ // echo, advanced
						if fc.WriteFrame(*f) != nil {
							c.Close()
							return
						}
					}
				}()
			}
		}()

		tr := New(mn, seed, Config{
			WriteLatency: 100 * time.Microsecond, WriteJitter: 300 * time.Microsecond,
			TruncateProb: 0.02, ResetProb: 0.01, SlowLorisProb: 0.05,
			SlowLorisPace: time.Millisecond, SlowLorisBytes: 4,
		})
		tr.Record = true
		conn, err := tr.Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		fc := wire.NewFrameConn(conn)
		for ep := uint64(0); ep < 400; ep++ {
			if err := fc.WriteFrame(wire.Frame{Type: wire.TypeArrive, Episode: ep}); err != nil {
				ledger = append(ledger, fmt.Sprintf("write %d: %v", ep, err))
				break
			}
			f, err := fc.ReadFrame()
			if err != nil {
				ledger = append(ledger, fmt.Sprintf("read %d: error", ep))
				break
			}
			ledger = append(ledger, fmt.Sprintf("echo %d->%d", ep, f.Episode))
		}
		return tr.Events(), ledger
	}

	ev1, led1 := run(1234)
	ev2, led2 := run(1234)
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("same seed, different injected-event logs:\n%v\nvs\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(led1, led2) {
		t.Fatalf("same seed, different ledgers:\n%v\nvs\n%v", led1, led2)
	}
	if len(ev1) == 0 {
		t.Fatal("no events injected; the run exercised nothing")
	}
	ev3, _ := run(99)
	if reflect.DeepEqual(ev1, ev3) {
		t.Fatal("different seeds, identical event logs")
	}
}
