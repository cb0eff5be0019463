package shardbarrier

import (
	"fmt"
	"sync"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/wire"
)

// The leaf→root link's timing. Each root dial is bounded by dialTimeout
// and retried up to dialAttempts times, sleeping dialBackoff after the
// first failure and doubling it after each later one; each frame write on
// the link is bounded by writeTimeout.
const (
	dialTimeout  = 5 * time.Second
	dialAttempts = 3
	dialBackoff  = 100 * time.Millisecond
	writeTimeout = 10 * time.Second
)

// LeafOptions configures one leaf shard of a hierarchical deployment.
type LeafOptions struct {
	// Net configures the leaf's local netbarrier server — watchdog,
	// elasticity, collective op, planner knobs — exactly as for a
	// standalone barrierd. Net.Upstream is overwritten: wiring the leaf to
	// its root is this package's job. Net.Transport is the network both
	// sides of the leaf run over — the local listener ListenAndServe binds
	// and the dialer the leaf→root links use — so a fleet on an in-process
	// memnet (or under a chaos wrapper) configures one transport and every
	// hop follows. Nil selects wire.DefaultTCP.
	Net netbarrier.Options
	// Root is the root barrierd's address (host:port).
	Root string
	// Index is this leaf's shard id: its slot in the root's deterministic
	// ascending-id fold. Leaves must use distinct indices in [0, Shards).
	Index int
	// Shards is how many leaf shards join the root for each session: every
	// leaf serves every session. 0 selects 1 (a fleet of one).
	Shards int
}

// Leaf is one shard of a hierarchical barrierd fleet: a full netbarrier
// server for its local clients, whose sessions forward one aggregated
// arrival per episode to the root and fan the root's fleet-wide release
// back out. It implements netbarrier.Upstream; construct it with NewLeaf,
// which wires itself into the server's options.
type Leaf struct {
	opt LeafOptions
	srv *netbarrier.Server
}

// NewLeaf returns a leaf serving opt.Net locally and synchronizing
// through the root at opt.Root. Start it with Serve, like the server it
// wraps.
func NewLeaf(opt LeafOptions) *Leaf {
	l := &Leaf{opt: opt}
	l.opt.Net.Upstream = l
	if l.opt.Net.Transport == nil {
		l.opt.Net.Transport = wire.DefaultTCP
	}
	l.srv = netbarrier.NewServer(l.opt.Net)
	return l
}

// Server exposes the leaf's local netbarrier server (for stats, Addr,
// and session inspection).
func (l *Leaf) Server() *netbarrier.Server { return l.srv }

// Serve accepts local client connections on ln until Close and blocks for
// the duration.
func (l *Leaf) Serve(ln wire.Listener) error { return l.srv.Serve(ln) }

// Close shuts the leaf down: the local server poisons its sessions, and
// each session's cause travels both down to its local clients and, over
// the root link the session owns, up to the root — so the rest of the
// fleet fails with the server's shutdown cause rather than a bare
// disconnect. There are no links but the sessions', so nothing is left to
// sweep afterwards.
func (l *Leaf) Close() error { return l.srv.Close() }

// Open implements netbarrier.Upstream: the root link of one session
// instance, not yet connected.
func (l *Leaf) Open(session string, fail func(error)) netbarrier.UpstreamLink {
	return &link{leaf: l, name: session, failSession: fail}
}

// link is one session's connection to the root: the leaf side of the
// ShardJoin/ShardArrive/ShardRelease protocol, owned by the session that
// opened it — the name only says which root session to join. The session's
// episode serialization — its local cohort cannot begin episode k+1 before
// the release of k has been fanned out — means at most one forwarded
// arrival is ever outstanding, so a single pending-callback slot suffices.
//
// Concurrency: the session's releaser goroutine writes (Arrive, Close)
// and the link's reader goroutine completes (release, poison from the
// root); mu guards the write half of fc, the episode counter, and the
// pending slot; the reader goroutine owns the read half exclusively —
// exactly the two-halves split wire.FrameConn is documented for.
type link struct {
	leaf        *Leaf
	name        string
	failSession func(error) // poisons the owning session; for a failure with no arrival outstanding

	mu      sync.Mutex
	fc      *wire.FrameConn // nil until the first Arrive has dialed
	episode uint64
	pending func(netbarrier.ShardOutcome)
	closing bool // graceful leave deferred past the in-flight episode
	dead    bool

	resBuf []byte // reader-owned: the fleet result handed to pending
}

// dial connects to the root through the leaf's transport and performs the
// ShardJoin handshake, returning the connection and the root session's
// current episode.
func (lk *link) dial() (*wire.FrameConn, uint64, error) {
	opt := &lk.leaf.opt
	conn, err := wire.Redial(opt.Net.Transport, opt.Root, dialTimeout, dialAttempts, dialBackoff)
	if err != nil {
		return nil, 0, fmt.Errorf("shardbarrier: session %q cannot reach root: %w", lk.name, err)
	}
	fc := wire.NewFrameConn(conn)
	err = fc.WriteFrameTimeout(wire.Frame{Type: wire.TypeShardJoin, Name: lk.name, P: max(opt.Shards, 1), ID: opt.Index}, writeTimeout)
	if err != nil {
		fc.Close()
		return nil, 0, fmt.Errorf("shardbarrier: session %q shard-join write failed: %w", lk.name, err)
	}
	fc.SetReadDeadline(time.Now().Add(dialTimeout + writeTimeout))
	resp, err := fc.ReadFrame()
	switch {
	case err != nil:
		fc.Close()
		return nil, 0, fmt.Errorf("shardbarrier: session %q shard-join failed: %w", lk.name, err)
	case resp.Type != wire.TypeJoinResp:
		fc.Close()
		return nil, 0, fmt.Errorf("shardbarrier: session %q shard-join answered with %s", lk.name, wire.FrameName(resp.Type))
	case resp.Err != "":
		fc.Close()
		return nil, 0, fmt.Errorf("shardbarrier: session %q shard-join refused by root: %s", lk.name, resp.Err)
	}
	fc.SetReadDeadline(time.Time{})
	fc.SetWriteDeadline(time.Time{})
	return fc, resp.Episode, nil
}

// Arrive implements netbarrier.UpstreamLink: it forwards the session's
// combined local arrival to the root, dialing and shard-joining on first
// use, and arranges for done to run when the root's release — or the
// fleet's poison cause — comes back. The root session counts its own
// episodes (the link follows them from the JoinResp on), so the local
// session's episode number never reaches the link. The pending slot is
// armed before the frame is flushed, so a release (or poison) racing back
// on the reader goroutine always finds its callback.
func (lk *link) Arrive(localP int, spread, sigma float64, data []byte, done func(netbarrier.ShardOutcome)) {
	lk.mu.Lock()
	if lk.fc == nil && !lk.dead {
		// The dial runs unlocked — a Close must not wait out a redial
		// backoff — so the session can be poisoned meanwhile: a connection
		// dialed for a link closed under it is dropped, never published.
		lk.mu.Unlock()
		fc, episode, err := lk.dial()
		lk.mu.Lock()
		switch {
		case err != nil:
			lk.dead = true
			lk.mu.Unlock()
			done(netbarrier.ShardOutcome{Err: err})
			return
		case lk.dead:
			fc.Close()
		default:
			lk.fc, lk.episode = fc, episode
			go lk.read()
		}
	}
	if lk.dead {
		lk.mu.Unlock()
		done(netbarrier.ShardOutcome{Err: fmt.Errorf("shardbarrier: session %q root link is down", lk.name)})
		return
	}
	lk.pending = done
	err := lk.writeLocked(wire.Frame{
		Type: wire.TypeShardArrive, Episode: lk.episode,
		P: localP, Spread: spread, Sigma: sigma, Data: data,
	})
	if err != nil {
		lk.pending = nil
		lk.dead = true
		lk.fc.Close()
		lk.mu.Unlock()
		done(netbarrier.ShardOutcome{Err: fmt.Errorf("shardbarrier: session %q lost root link: %w", lk.name, err)})
		return
	}
	lk.mu.Unlock()
}

// read is the link's reader loop: it completes forwarded arrivals with
// the root's releases and converts a root-side poison — or the link
// dying — into the session's poison cause (fail).
func (lk *link) read() {
	for {
		f, err := lk.fc.ReadFrame()
		if err != nil {
			lk.fail(fmt.Errorf("shardbarrier: session %q root link failed: %w", lk.name, err))
			return
		}
		switch f.Type {
		case wire.TypeShardRelease:
			lk.mu.Lock()
			done := lk.pending
			lk.pending = nil
			lk.episode = f.Episode + 1
			closing := lk.closing
			lk.mu.Unlock()
			if done == nil {
				lk.fail(fmt.Errorf("shardbarrier: session %q: root released episode %d with no arrival outstanding", lk.name, f.Episode))
				return
			}
			out := netbarrier.ShardOutcome{Sigma: f.Sigma}
			if len(f.Data) > 0 {
				lk.resBuf = append(lk.resBuf[:0], f.Data...)
				out.Result = lk.resBuf
			}
			done(out)
			if closing {
				lk.Close(nil) // nothing is pending any more, so this one leaves
				return
			}
		case wire.TypePoison:
			lk.fail(softbarrier.DecodePoisonCause(f.Cause))
			return
		default:
			lk.fail(fmt.Errorf("shardbarrier: session %q: unexpected %s from root", lk.name, wire.FrameName(f.Type)))
			return
		}
	}
}

// fail tears the link down with a cause that came from the root's side,
// delivering it through the pending callback when an arrival is
// outstanding, and otherwise — the root died between episodes, and local
// clients must not hang until the next arrival discovers it — by
// poisoning the session that owns the link. A link its session has
// already closed is dead, so this does nothing then.
func (lk *link) fail(cause error) {
	lk.mu.Lock()
	if lk.dead {
		lk.mu.Unlock()
		return
	}
	lk.dead = true
	done := lk.pending
	lk.pending = nil
	lk.fc.Close()
	lk.mu.Unlock()
	if done != nil {
		done(netbarrier.ShardOutcome{Err: cause})
		return
	}
	lk.failSession(cause)
}

// Close implements netbarrier.UpstreamLink. With a cause it hands the
// local session's poison up to the root (best effort): the root fails the
// fleet-wide session with the original error, identity intact, so every
// other shard's clients see why. Without one it departs the root
// gracefully — deferred, if an arrival is still outstanding (every local
// client arrived and then left without awaiting), until that episode's
// release, keeping the root's arrival accounting exact. Idempotent; safe
// on a link that never dialed.
func (lk *link) Close(cause error) {
	lk.mu.Lock()
	defer lk.mu.Unlock()
	switch {
	case lk.dead:
	case lk.fc == nil:
		lk.dead = true
	case cause != nil:
		lk.pending = nil // the local session already has its cause
		lk.closeLocked(wire.Frame{Type: wire.TypePoison, Cause: softbarrier.EncodePoisonCause(nil, cause)})
	case lk.pending != nil:
		lk.closing = true
	default:
		lk.closeLocked(wire.Frame{Type: wire.TypeLeave})
	}
}

// closeLocked sends the link's last frame (best effort) and tears it
// down. Caller holds lk.mu, on a dialed link.
func (lk *link) closeLocked(last wire.Frame) {
	lk.dead = true
	lk.writeLocked(last)
	lk.fc.Close()
}

// writeLocked sends one frame on the write half under lk.mu, bounded by
// writeTimeout.
func (lk *link) writeLocked(f wire.Frame) error {
	return lk.fc.WriteFrameTimeout(f, writeTimeout)
}
