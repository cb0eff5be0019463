package shardbarrier

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"softbarrier"
	"softbarrier/internal/netbarrier"
	"softbarrier/internal/wire"
)

// ErrLeafClosed is the cause sessions receive when their leaf shuts down.
var ErrLeafClosed = errors.New("shardbarrier: leaf closed")

// LeafOptions configures one leaf shard of a hierarchical deployment.
type LeafOptions struct {
	// Net configures the leaf's local netbarrier server — watchdog,
	// elasticity, collective op, planner knobs — exactly as for a
	// standalone barrierd. Net.Upstream is overwritten: wiring the leaf to
	// its root is this package's job.
	Net netbarrier.Options
	// Root is the root barrierd's address (host:port).
	Root string
	// Index is this leaf's default shard id: its slot in the root's
	// deterministic ascending-id fold for sessions that span the whole
	// fleet. Leaves must use distinct indices in [0, Shards).
	Index int
	// Shards is the default session span: how many leaf shards join the
	// root for each session. 0 selects 1 (a fleet of one).
	Shards int
	// SessionSlot, when non-nil, overrides Shards/Index per session: it
	// returns the session's span and this leaf's shard id within it. An id
	// of -1 means the session is not placed on this leaf (consistent-hash
	// placement routed its clients elsewhere); a client that dials the
	// wrong leaf is then refused with a placement error instead of
	// corrupting another shard's slot. Fleet wires this to Ring.Span.
	SessionSlot func(session string) (shards, id int)
	// Transport is the network both sides of the leaf run over: the local
	// listener ListenAndServe binds and the dialer the leaf→root links use.
	// Nil selects Net.Transport, then wire.DefaultTCP — so a fleet on an
	// in-process memnet (or under a chaos wrapper) configures one transport
	// and every hop follows.
	Transport wire.Transport
	// DialTimeout bounds each connection attempt to the root; 0 selects 5s.
	DialTimeout time.Duration
	// DialAttempts is how many times a failed root dial is retried before
	// the session is poisoned with the dial error; 0 selects 3.
	DialAttempts int
	// DialBackoff is the sleep after the first failed attempt, doubling
	// after each subsequent one; 0 selects 100ms.
	DialBackoff time.Duration
	// WriteTimeout bounds each frame write on the root link; 0 selects 10s.
	WriteTimeout time.Duration
}

func (o *LeafOptions) transport() wire.Transport {
	if o.Transport != nil {
		return o.Transport
	}
	if o.Net.Transport != nil {
		return o.Net.Transport
	}
	return wire.DefaultTCP
}

func (o *LeafOptions) dialTimeout() time.Duration {
	if o.DialTimeout > 0 {
		return o.DialTimeout
	}
	return 5 * time.Second
}

func (o *LeafOptions) dialAttempts() int {
	if o.DialAttempts > 0 {
		return o.DialAttempts
	}
	return 3
}

func (o *LeafOptions) dialBackoff() time.Duration {
	if o.DialBackoff > 0 {
		return o.DialBackoff
	}
	return 100 * time.Millisecond
}

func (o *LeafOptions) writeTimeout() time.Duration {
	if o.WriteTimeout > 0 {
		return o.WriteTimeout
	}
	return 10 * time.Second
}

func (o *LeafOptions) slot(session string) (shards, id int) {
	if o.SessionSlot != nil {
		return o.SessionSlot(session)
	}
	shards = o.Shards
	if shards <= 0 {
		shards = 1
	}
	return shards, o.Index
}

// Leaf is one shard of a hierarchical barrierd fleet: a full netbarrier
// server for its local clients, whose sessions forward one aggregated
// arrival per episode to the root and fan the root's fleet-wide release
// back out. It implements netbarrier.Upstream; construct it with NewLeaf,
// which wires itself into the server's options.
type Leaf struct {
	opt LeafOptions
	srv *netbarrier.Server

	mu     sync.Mutex
	links  map[string]*link
	closed bool
}

// NewLeaf returns a leaf serving opt.Net locally and synchronizing
// through the root at opt.Root. Start it with Serve/ListenAndServe, like
// the server it wraps.
func NewLeaf(opt LeafOptions) *Leaf {
	l := &Leaf{opt: opt, links: make(map[string]*link)}
	l.opt.Net.Upstream = l
	if l.opt.Net.Transport == nil {
		l.opt.Net.Transport = l.opt.transport()
	}
	l.srv = netbarrier.NewServer(l.opt.Net)
	return l
}

// Server exposes the leaf's local netbarrier server (for stats, Addr,
// and session inspection).
func (l *Leaf) Server() *netbarrier.Server { return l.srv }

// ListenAndServe listens on addr through the leaf's transport and serves
// local clients until Close.
func (l *Leaf) ListenAndServe(addr string) error {
	ln, err := l.opt.transport().Listen(addr)
	if err != nil {
		return err
	}
	return l.Serve(ln)
}

// Serve accepts local client connections on ln until Close and blocks for
// the duration.
func (l *Leaf) Serve(ln wire.Listener) error { return l.srv.Serve(ln) }

// Close shuts the leaf down: local sessions are poisoned (their causes
// travel both down to local clients and up to the root, so the rest of
// the fleet fails with "leaf closed" rather than a bare disconnect), and
// every root link is torn down.
func (l *Leaf) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	err := l.srv.Close() // poisons live sessions; their ShardClose tears down their links
	l.mu.Lock()
	links := make([]*link, 0, len(l.links))
	for _, lk := range l.links {
		links = append(links, lk)
	}
	l.mu.Unlock()
	for _, lk := range links {
		lk.poison(ErrLeafClosed)
	}
	return err
}

// ShardArrive implements netbarrier.Upstream: it forwards the session's
// combined local arrival to the root over the session's link (dialing and
// shard-joining on first use) and arranges for done to run when the
// root's release — or the fleet's poison cause — comes back.
func (l *Leaf) ShardArrive(session string, episode uint64, localP int, spread, sigma float64, data []byte, done func(netbarrier.ShardOutcome)) {
	lk, err := l.link(session)
	if err != nil {
		done(netbarrier.ShardOutcome{Err: err})
		return
	}
	lk.arrive(localP, spread, sigma, data, done)
}

// ShardClose implements netbarrier.Upstream: the session's link departs
// the root gracefully (nil cause) or forwards the local poison cause so
// the rest of the fleet fails with the original error.
func (l *Leaf) ShardClose(session string, cause error) {
	l.mu.Lock()
	lk := l.links[session]
	l.mu.Unlock()
	if lk == nil {
		return
	}
	if cause != nil {
		lk.poison(cause)
		return
	}
	lk.leave()
}

// link returns the session's root link, establishing it on first use.
// Sessions are serialized at their episode boundaries, so per-session
// calls never race; the once guards only the map entry's handshake.
func (l *Leaf) link(session string) (*link, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrLeafClosed
	}
	lk := l.links[session]
	if lk == nil {
		lk = &link{leaf: l, name: session}
		l.links[session] = lk
	}
	l.mu.Unlock()
	lk.ready.Do(func() { lk.joinErr = lk.dial() })
	if lk.joinErr != nil {
		l.drop(lk)
		return nil, lk.joinErr
	}
	return lk, nil
}

// drop removes a dead link so the session name can re-link later (a new
// session instance under a reused name dials fresh).
func (l *Leaf) drop(lk *link) {
	l.mu.Lock()
	if cur := l.links[lk.name]; cur == lk {
		delete(l.links, lk.name)
	}
	l.mu.Unlock()
}

// link is one session's connection to the root: the leaf side of the
// ShardJoin/ShardArrive/ShardRelease protocol. The session's episode
// serialization — its local cohort cannot begin episode k+1 before the
// release of k has been fanned out — means at most one forwarded arrival
// is ever outstanding, so a single pending-callback slot suffices.
//
// Concurrency: the session's releaser goroutine writes (arrive, leave,
// poison) and the link's reader goroutine completes (release, poison from
// the root); mu guards the write half of fc, the episode counter, and the
// pending slot; the reader goroutine owns the read half exclusively —
// exactly the two-halves split wire.FrameConn is documented for.
type link struct {
	leaf *Leaf
	name string

	ready   sync.Once
	joinErr error

	fc *wire.FrameConn

	mu      sync.Mutex
	episode uint64
	pending func(netbarrier.ShardOutcome)
	closing bool // graceful leave deferred past the in-flight episode
	dead    bool

	resBuf []byte // reader-owned: the fleet result handed to pending
}

// dial connects to the root through the leaf's transport and performs the
// ShardJoin handshake.
func (lk *link) dial() error {
	opt := &lk.leaf.opt
	shards, id := opt.slot(lk.name)
	if id < 0 {
		return fmt.Errorf("shardbarrier: session %q is not placed on this leaf (consistent-hash placement routes it elsewhere)", lk.name)
	}
	conn, err := wire.Redial(opt.transport(), opt.Root, opt.dialTimeout(), opt.dialAttempts(), opt.dialBackoff())
	if err != nil {
		return fmt.Errorf("shardbarrier: session %q cannot reach root: %w", lk.name, err)
	}
	fc := wire.NewFrameConn(conn)
	err = fc.WriteFrameTimeout(wire.Frame{Type: wire.TypeShardJoin, Name: lk.name, P: shards, ID: id}, opt.writeTimeout())
	if err != nil {
		fc.Close()
		return fmt.Errorf("shardbarrier: session %q shard-join write failed: %w", lk.name, err)
	}
	fc.SetReadDeadline(time.Now().Add(opt.dialTimeout() + opt.writeTimeout()))
	resp, err := fc.ReadFrame()
	switch {
	case err != nil:
		fc.Close()
		return fmt.Errorf("shardbarrier: session %q shard-join failed: %w", lk.name, err)
	case resp.Type != wire.TypeJoinResp:
		fc.Close()
		return fmt.Errorf("shardbarrier: session %q shard-join answered with %s", lk.name, wire.FrameName(resp.Type))
	case resp.Err != "":
		fc.Close()
		return fmt.Errorf("shardbarrier: session %q shard-join refused by root: %s", lk.name, resp.Err)
	}
	fc.SetReadDeadline(time.Time{})
	fc.SetWriteDeadline(time.Time{})
	// Links are keyed by session name, so a ShardClose meant for a
	// predecessor under this name (its link failing late, and poisoning by
	// name) can reach this link while it is still dialing: publish under
	// mu, and do not bring up a link that was poisoned in the meantime.
	lk.mu.Lock()
	if lk.dead {
		lk.mu.Unlock()
		fc.Close()
		return fmt.Errorf("shardbarrier: session %q was poisoned during its shard-join", lk.name)
	}
	lk.fc = fc
	lk.episode = resp.Episode
	lk.mu.Unlock()
	go lk.read()
	return nil
}

// arrive forwards one aggregated arrival. The pending slot is armed
// before the frame is flushed, so a release (or poison) racing back on
// the reader goroutine always finds its callback.
func (lk *link) arrive(localP int, spread, sigma float64, data []byte, done func(netbarrier.ShardOutcome)) {
	lk.mu.Lock()
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
		lk.mu.Unlock()
		lk.fc.Close()
		lk.leaf.drop(lk)
		done(netbarrier.ShardOutcome{Err: fmt.Errorf("shardbarrier: session %q lost root link: %w", lk.name, err)})
		return
	}
	lk.mu.Unlock()
}

// read is the link's reader loop: it completes forwarded arrivals with
// the root's releases and converts a root-side poison — or the link
// dying — into the session's poison cause. A failure with no arrival
// outstanding poisons the local session directly (PoisonSession): the
// root died between episodes, and local clients must not hang until the
// next arrival discovers it.
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
			out := netbarrier.ShardOutcome{FleetP: f.FleetP, Sigma: f.Sigma}
			if len(f.Data) > 0 {
				lk.resBuf = append(lk.resBuf[:0], f.Data...)
				out.Result = lk.resBuf
			}
			done(out)
			if closing {
				lk.shutdown(wire.Frame{Type: wire.TypeLeave})
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

// fail tears the link down with cause, delivering it through the pending
// callback when an arrival is outstanding and by poisoning the local
// session otherwise. Idempotent.
func (lk *link) fail(cause error) {
	lk.mu.Lock()
	if lk.dead {
		lk.mu.Unlock()
		return
	}
	lk.dead = true
	done := lk.pending
	lk.pending = nil
	lk.mu.Unlock()
	lk.fc.Close()
	lk.leaf.drop(lk)
	if done != nil {
		done(netbarrier.ShardOutcome{Err: cause})
		return
	}
	lk.leaf.srv.PoisonSession(lk.name, cause)
}

// poison hands the local session's cause up to the root (best effort) and
// tears the link down. The root fails the fleet-wide session with the
// original error, identity intact, so every other shard's clients see
// why. Idempotent; safe on a link whose handshake never completed.
func (lk *link) poison(cause error) {
	lk.mu.Lock()
	if lk.dead || lk.fc == nil {
		lk.dead = true
		lk.pending = nil
		lk.mu.Unlock()
		return
	}
	lk.dead = true
	lk.pending = nil // the local session already has its cause
	lk.writeLocked(wire.Frame{Type: wire.TypePoison, Cause: softbarrier.EncodePoisonCause(nil, cause)})
	lk.mu.Unlock()
	lk.fc.Close()
	lk.leaf.drop(lk)
}

// leave departs the root gracefully. With an arrival still outstanding —
// every local client arrived and then left without awaiting — the
// departure is deferred until the in-flight episode's release, keeping
// the root's arrival accounting exact.
func (lk *link) leave() {
	lk.mu.Lock()
	if lk.dead || lk.fc == nil {
		lk.dead = true
		lk.mu.Unlock()
		return
	}
	if lk.pending != nil {
		lk.closing = true
		lk.mu.Unlock()
		return
	}
	lk.dead = true
	lk.writeLocked(wire.Frame{Type: wire.TypeLeave})
	lk.mu.Unlock()
	lk.fc.Close()
	lk.leaf.drop(lk)
}

// shutdown (reader-goroutine only) sends a final frame and tears down,
// for the deferred-leave path.
func (lk *link) shutdown(f wire.Frame) {
	lk.mu.Lock()
	lk.dead = true
	lk.writeLocked(f)
	lk.mu.Unlock()
	lk.fc.Close()
	lk.leaf.drop(lk)
}

// writeLocked sends one frame on the write half under lk.mu, bounded by
// the leaf's write timeout.
func (lk *link) writeLocked(f wire.Frame) error {
	return lk.fc.WriteFrameTimeout(f, lk.leaf.opt.writeTimeout())
}
