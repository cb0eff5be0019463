//go:build unix

package wire

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// TestTCPSocketOptions reads back from the kernel, on a dialed and on an
// accepted DefaultTCP connection, the two options the transport relies
// on: TCP_NODELAY, so each frame is sent at once (Go's net package sets
// it on every TCP connection, so the transport need not), and
// SO_KEEPALIVE, so a peer that vanished is detected between episodes.
func TestTCPSocketOptions(t *testing.T) {
	ln, err := DefaultTCP.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	dialed, err := DefaultTCP.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	server := <-accepted
	if server == nil {
		t.Fatal("accept failed")
	}
	defer server.Close()

	for side, conn := range map[string]Conn{"dialed": dialed, "accepted": server} {
		raw, err := conn.(*net.TCPConn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []struct {
			name         string
			level, which int
		}{
			{"TCP_NODELAY", syscall.IPPROTO_TCP, syscall.TCP_NODELAY},
			{"SO_KEEPALIVE", syscall.SOL_SOCKET, syscall.SO_KEEPALIVE},
		} {
			var v int
			var optErr error
			if err := raw.Control(func(fd uintptr) {
				v, optErr = syscall.GetsockoptInt(int(fd), opt.level, opt.which)
			}); err != nil {
				t.Fatal(err)
			}
			if optErr != nil {
				t.Fatalf("%s: getsockopt %s: %v", side, opt.name, optErr)
			}
			if v == 0 {
				t.Errorf("%s connection has %s unset", side, opt.name)
			}
		}
	}
}
