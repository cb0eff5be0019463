//go:build !unix

package wire

// rawTryWriter has no portable implementation here: kernel sockets take
// the blocking write path.
func rawTryWriter(Conn) TryWriter { return nil }
