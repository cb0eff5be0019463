package wire

import (
	"context"
	"fmt"
	"net"
	"time"
)

// Conn is the stream a barrierd peer speaks frames over. It is exactly
// net.Conn — deadlines included, which the join timeout, stall watchdog,
// and context-cancelled waits all rely on — aliased so alternative
// transports (memnet, chaos) slot in without adapters.
type Conn = net.Conn

// Listener accepts Conns; it is exactly net.Listener for the same reason.
type Listener = net.Listener

// Dialer establishes connections to a barrierd peer. timeout bounds the
// whole connection attempt (0 = no bound).
type Dialer interface {
	Dial(addr string, timeout time.Duration) (Conn, error)
}

// Transport is a bidirectional transport: it dials peers and binds
// listeners in one address namespace, so a server listening on an address
// is reachable by dialing that same address through the same Transport.
type Transport interface {
	Dialer
	Listen(addr string) (Listener, error)
}

// DefaultKeepAlive is the OS keepalive probe period TCP uses when none is
// configured: long enough not to matter on a healthy link, short enough
// that a peer that silently vanished — powered off, cable pulled, NAT
// state dropped — is detected even between episodes, when neither side is
// writing.
const DefaultKeepAlive = 15 * time.Second

// TCP is the production transport: TCP with OS keepalive armed on both
// dialed and accepted connections, and with TCP_NODELAY, which Go sets on
// every TCP connection (arrive and release frames are latency-bound;
// batching them behind delayed ACKs costs episode time). The zero value
// is the stack's default configuration.
type TCP struct {
	// KeepAlive is the keepalive probe period armed on every connection:
	// 0 selects DefaultKeepAlive, negative disables probing entirely.
	KeepAlive time.Duration
}

// DefaultTCP is the transport consumers fall back to when none is
// configured: default keepalive.
var DefaultTCP = &TCP{}

func (t *TCP) keepAlive() time.Duration {
	switch {
	case t.KeepAlive == 0:
		return DefaultKeepAlive
	case t.KeepAlive < 0:
		return -1 // net.Dialer's "disable" convention
	default:
		return t.KeepAlive
	}
}

// Dial implements Dialer: one TCP connection attempt bounded by timeout,
// with the transport's keepalive armed through net.Dialer.
func (t *TCP) Dial(addr string, timeout time.Duration) (Conn, error) {
	d := net.Dialer{Timeout: timeout, KeepAlive: t.keepAlive()}
	return d.Dial("tcp", addr)
}

// Listen implements Transport. Accepted connections get the same keepalive
// as dialed ones, armed through net.ListenConfig, so a peer behind either
// end of the link is detected.
func (t *TCP) Listen(addr string) (Listener, error) {
	lc := net.ListenConfig{KeepAlive: t.keepAlive()}
	return lc.Listen(context.Background(), "tcp", addr)
}

// Redial is Dial with a bounded reconnect loop: up to attempts tries
// through d, sleeping backoff after the first failure and doubling it
// after each subsequent one (capped at 30× the initial backoff). It
// returns the first successful connection or the last dial error. The
// inter-shard leaf→root link uses it so a root that is still starting up —
// the common fleet-bringup race — is retried instead of failing the first
// session, while a root that is genuinely gone still fails within a bound
// the caller chose.
func Redial(d Dialer, addr string, timeout time.Duration, attempts int, backoff time.Duration) (Conn, error) {
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	sleep := backoff
	for try := 0; try < attempts; try++ {
		if try > 0 && sleep > 0 {
			time.Sleep(sleep)
			if sleep < 30*backoff {
				sleep *= 2
			}
		}
		conn, err := d.Dial(addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("wire: dialing %s failed after %d attempts: %w", addr, attempts, lastErr)
}
