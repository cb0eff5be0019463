package wire

// TryWriter is the optional non-blocking write capability of a Conn: the
// release fan-out uses it to put a frame on a member's socket from the
// releasing goroutine itself, with no writer goroutine to wake and no
// deadline to arm, and falls back to a blocking, deadline-bounded Write
// only for a connection that cannot take the whole frame at once.
//
// TryWrite writes as much of p as the connection accepts without waiting
// and returns that count: n < len(p) with a nil error means the rest
// would block, and is the caller's to finish. It neither consults nor
// changes the write deadline — except that an *expired* deadline left
// armed on a kernel socket fails it, so a caller that mixes it with
// deadline-bounded Writes clears the deadline after each of those. Like
// Write it must not be called concurrently with another write on the
// same connection: callers serialize whole frames.
type TryWriter interface {
	TryWrite(p []byte) (n int, err error)
}

// TryWriterOf returns conn's non-blocking write capability, or nil if it
// has none and every write must take the blocking path. A connection may
// implement TryWriter itself (memnet does); a TCP socket gets it from a
// raw write(2) on its non-blocking descriptor on unix builds. A wrapper
// around either hides both on purpose — a fault injector that stalls
// Write must not be bypassed — unless it implements TryWriter too.
func TryWriterOf(conn Conn) TryWriter {
	if tw, ok := conn.(TryWriter); ok {
		return tw
	}
	return rawTryWriter(conn)
}
