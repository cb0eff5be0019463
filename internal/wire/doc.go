// Package wire is the transport layer under the networked barrier stack:
// the frame codec the peers speak (AppendFrame, DecodeFrame), the
// transport abstraction they speak it over (Conn, Listener, Dialer,
// Transport, TCP, Redial), a Conn's optional non-blocking write
// (TryWriter), and FrameConn, the one frame reader. The in-process
// transport is the subpackage memnet.
//
// DESIGN.md describes the mechanisms: §5.7 the frames, §5.11 the
// allocation-free frame path, §5.13 the transports.
package wire
