//go:build unix

package wire

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestTryWriterTCP: on a kernel socket TryWrite takes what the socket
// buffer has room for and reports the rest as not taken instead of
// waiting for it; what it reported written is what arrives; and a
// wrapper around the socket does not inherit the capability.
func TestTryWriterTCP(t *testing.T) {
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
	client, err := DefaultTCP.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	defer server.Close()

	if TryWriterOf(struct{ net.Conn }{server}) != nil {
		t.Fatal("a wrapper around a TCP conn must not expose the raw write")
	}
	tw := TryWriterOf(server)
	if tw == nil {
		t.Fatal("accepted TCP conns must offer TryWrite")
	}
	chunk := make([]byte, 64<<10)
	total := 0
	for { // the client is not reading: the buffers fill, and a blocking write would hang here
		n, err := tw.TryWrite(chunk)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if n < len(chunk) {
			break
		}
		if total > 256<<20 {
			t.Fatal("wrote 256 MiB into an unread socket; TryWrite is not seeing EAGAIN")
		}
	}
	server.Close()
	if got, err := io.Copy(io.Discard, client); err != nil || int(got) != total {
		t.Fatalf("drained %d bytes, %v; want %d", got, err, total)
	}
	if _, err := tw.TryWrite(chunk); err == nil {
		t.Fatal("TryWrite on a closed conn succeeded")
	}
}
