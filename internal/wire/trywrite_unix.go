//go:build unix

package wire

import (
	"net"
	"os"
	"syscall"
)

// rawWriter is TryWriter for a kernel socket: one write(2) on the
// descriptor the runtime already keeps non-blocking, EAGAIN reported as
// zero bytes taken. try is built once and reads its argument from p, so a
// call allocates nothing.
type rawWriter struct {
	rc  syscall.RawConn
	try func(fd uintptr) bool

	p   []byte
	n   int
	err error
}

// Only the concrete socket type qualifies, not anything that happens to
// expose a descriptor: a type that embeds a *net.TCPConn to intercept
// Write must not have its Write bypassed.
func rawTryWriter(conn Conn) TryWriter {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return nil
	}
	rc, err := tc.SyscallConn()
	if err != nil {
		return nil
	}
	w := &rawWriter{rc: rc}
	w.try = func(fd uintptr) bool {
		for {
			w.n, w.err = syscall.Write(int(fd), w.p)
			if w.err != syscall.EINTR {
				break
			}
		}
		if w.err == syscall.EAGAIN {
			w.n, w.err = 0, nil
		}
		// Done either way: returning false would park the caller until the
		// socket is writable, which is the one thing TryWrite must not do.
		return true
	}
	return w
}

func (w *rawWriter) TryWrite(p []byte) (int, error) {
	w.p = p
	err := w.rc.Write(w.try) // fails without calling try if the conn is closed or its write deadline has expired
	w.p = nil
	if err != nil {
		return 0, err
	}
	if w.err != nil {
		return 0, os.NewSyscallError("write", w.err)
	}
	return w.n, nil
}
