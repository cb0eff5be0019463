// Package wire is the transport layer under the networked barrier stack:
// the frame codec the peers speak, the transport abstraction they speak it
// over, and the shared per-connection frame I/O machinery.
//
// The package splits into three layers:
//
//   - The frame codec (frame.go): eleven length-prefixed binary frame
//     types covering the whole session lifecycle — join handshakes
//     (version-checked), per-episode arrivals and releases, collective
//     payloads, poison causes, and the inter-shard dialect a leaf barrierd
//     speaks to its root. AppendFrame/DecodeFrame are total and
//     fuzz-tested.
//
//   - The transport abstraction (transport.go): Conn and Listener are
//     plain net.Conn/net.Listener — deadlines included, which the
//     watchdog, stall, and cancellation machinery all lean on — and
//     Dialer/Transport abstract how connections are made. TCP is the
//     production transport (TCP_NODELAY, as Go sets it on every TCP
//     connection, and a configurable OS keepalive); Redial wraps any Dialer with the bounded
//     backoff-retry loop fleet bringup needs. TryWriter (trywrite.go)
//     is a Conn's optional non-blocking write, which lets the server's
//     release fan-out write member sockets from the releasing goroutine;
//     TryWriterOf finds it, or builds it for a kernel socket. The
//     in-process memnet transport lives in the subpackage wire/memnet;
//     the fault-injecting chaos wrapper, which only the fleet tests
//     use, in internal/shardbarrier's _test.go files.
//
//   - FrameConn (framec.go): one peer's framed view of a Conn, and the
//     only frame reader there is — client, server read loop and leaf→root
//     link all use it. One read buffer, decoded in place into one Frame
//     handed on by pointer and valid until the next read on that
//     connection; one encode scratch, one Write per frame; nothing
//     allocated in the steady state (DESIGN.md §5.11).
//
// Everything above this package — netbarrier's client and server,
// shardbarrier's leaves and root links, cmd/barrierd — is written against
// Dialer/Transport/Conn, so a test (or a chaos run) swaps the whole stack
// onto an in-process or fault-injecting network by passing a different
// Transport; no consumer knows the difference.
package wire
