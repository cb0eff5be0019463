package netbarrier

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"softbarrier"
	"softbarrier/internal/wire"
)

const (
	// joinTimeout bounds how long a fresh connection may take to present
	// its JoinReq.
	joinTimeout = 10 * time.Second
	// maxP caps the participant count a JoinReq may open a session with.
	maxP = 4096
)

// ErrServerClosed is the poison cause members receive when the server is
// shut down under them.
var ErrServerClosed = errors.New("netbarrier: server closed")

// Options configures a Server. The zero value serves plain static-degree
// sessions with no watchdog.
type Options struct {
	// Watchdog is the per-session stall deadline: an episode in which some
	// members arrived and then nothing moved for Watchdog is poisoned with
	// a StallError naming the absent ids (softbarrier.WithWatchdog
	// semantics, fed by remote arrivals). 0 disables stall detection —
	// a vanished client is then only caught by its connection dropping.
	Watchdog time.Duration
	// ReplanEvery is how many episodes pass between planner re-evaluations
	// of the tree degree; 0 means every episode, and a negative value
	// panics in NewServer. Re-planning is cheap (a read of the model's
	// table for the cohort size: about 50–60 ns at 32 members on a 2-vCPU
	// host) and only rebuilds the tree when the recommended degree
	// actually changes.
	ReplanEvery int
	// Elastic lets session membership change between episodes: joins
	// against a full session are parked and admitted at the next episode
	// boundary instead of refused, Leaves shrink the cohort at the next
	// boundary instead of stalling it, and the first joiner's participant
	// count is only the initial cohort size. Member ids are re-assigned
	// densely at each boundary. It applies to client sessions only: an
	// inter-shard session keeps fixed membership, so each leaf keeps the
	// slot its shard id names in the root's ascending-id fold.
	Elastic bool
	// Tc is the counter-update cost fed to the analytic model, seconds;
	// 0 selects the paper's 20µs. Negative or NaN panics in NewServer.
	Tc float64
	// InitialSigma is the arrival spread assumed before any episode has
	// been measured, seconds. After the first episode the measured EWMA σ
	// takes over. Negative or NaN panics in NewServer.
	InitialSigma float64
	// WriteTimeout bounds each member-socket write during fan-out;
	// 0 selects 10s. A member that cannot be written within it is treated
	// as failed and the session is poisoned.
	WriteTimeout time.Duration
	// Placement constructs a predictive straggler-placement policy for
	// each new session (policies are stateful and single-owner, so the
	// server needs a factory, not an instance — use
	// softbarrier.PlacementByName to resolve one from a CLI name). The
	// session feeds each episode's measured per-participant lags to the
	// policy and, on the replan cadence, rebuilds its tree with the
	// predicted stragglers in the shallowest slots
	// (ReconfigStats.Placements counts these rebuilds). Sessions with a
	// policy build MCS-shaped trees: classic trees have uniform depth,
	// leaving placement nothing to choose. "reactive" is the policy for
	// consistently slow clients — the paper's dynamic placement generalized
	// to a full ranking. Nil disables predictive placement.
	Placement func() softbarrier.PlacementPolicy
	// Upstream, when non-nil, makes this server a leaf shard of a
	// hierarchical deployment: every session forwards one aggregated
	// arrival per episode upstream and releases its local clients only on
	// the upstream's release, over a link the session opens for itself
	// (see the Upstream interface).
	// internal/shardbarrier wires this to a root barrierd over the wire
	// protocol's shard frames.
	Upstream Upstream
	// Op arms every session with a collective reduction: arrivals may
	// carry op.Width-byte contributions (ArriveData frames), releases
	// carry the folded result (Result frames), and payload-less arrivals
	// — plain Arrive frames, and the proxy arrival for an elastic leaver
	// — contribute the op's identity. The op travels out-of-band: both
	// sides name it (softbarrier.OpByName) rather than shipping code.
	// Nil keeps the plain barrier protocol.
	Op *softbarrier.Op
	// Logf, when non-nil, receives one line per session lifecycle event
	// (join, re-plan, poison, retire).
	Logf func(format string, args ...any)
	// Transport supplies the listener ListenAndServe binds. Nil selects
	// wire.DefaultTCP (keepalive armed, Nagle off); tests and chaos runs
	// pass an in-process memnet. Serve(ln) callers bypass it entirely.
	Transport wire.Transport
}

func (o *Options) transport() wire.Transport {
	if o.Transport != nil {
		return o.Transport
	}
	return wire.DefaultTCP
}

func (o *Options) writeTimeout() time.Duration {
	if o.WriteTimeout > 0 {
		return o.WriteTimeout
	}
	return 10 * time.Second
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Server is the barrier coordination service: it accepts TCP connections,
// groups them into named sessions, and runs each session's combining tree
// and planner loop. One Server hosts any number of concurrent sessions.
type Server struct {
	opt Options

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[net.Conn]struct{}
	ln       net.Listener
	closed   bool

	wg sync.WaitGroup
}

// NewServer returns a server with the given options. Like the barrier
// constructors it panics on a negative (or NaN) model input — ReplanEvery,
// Tc or InitialSigma — rather than on the first join, where the session
// is built under the server's lock.
func NewServer(opt Options) *Server {
	if opt.ReplanEvery < 0 || !(opt.Tc >= 0) || !(opt.InitialSigma >= 0) {
		panic("netbarrier: negative ReplanEvery, Tc or InitialSigma")
	}
	return &Server{
		opt:      opt,
		sessions: make(map[string]*session),
		conns:    make(map[net.Conn]struct{}),
	}
}

// ListenAndServe listens on addr through the configured transport and
// serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := s.opt.transport().Listen(addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close (or a fatal accept error)
// and blocks for the duration.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Addr returns the listen address once Serve has bound a listener, and
// "" before that. It lets a caller that started Serve on ":0" in a
// goroutine discover the ephemeral port.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down: the listener stops accepting, every live
// session is poisoned with ErrServerClosed (members receive the
// wire-encoded cause), and all connections are closed. It blocks until
// every connection handler has returned.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, sess := range sessions {
		sess.poison(ErrServerClosed)
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// retire removes a finished (poisoned or fully departed) session so its
// name becomes reusable.
func (s *Server) retire(sess *session) {
	s.mu.Lock()
	if cur, ok := s.sessions[sess.name]; ok && cur == sess {
		delete(s.sessions, sess.name)
	}
	s.mu.Unlock()
	s.opt.logf("session %s: retired after %d episodes at epoch %d",
		sess.name, sess.episode.Load(), sess.tree.Epoch())
}

// SessionStats is a live snapshot of one session, for operational
// monitoring: the current epoch's membership, the episode counter, how
// many connections are parked awaiting admission, and the unified
// reconfiguration telemetry shared with the in-process barriers.
type SessionStats struct {
	Name     string
	P        int    // current epoch's participant count
	Episode  uint64 // current episode index
	Members  int    // live (joined, not departed) member connections
	Pending  int    // elastic joiners awaiting the next boundary
	Shard    bool   // members are aggregated leaf shards, not clients
	FleetP   int    // shard sessions: fleet-wide participant count, as of the last release
	Reconfig softbarrier.ReconfigStats
	// Depths is the per-participant synchronization path length in the
	// current epoch's tree. With a Placement policy armed, predicted
	// stragglers show the smallest depths.
	Depths []int
}

// SessionStats returns a snapshot of the named session, or false if no
// such session is live.
func (s *Server) SessionStats(name string) (SessionStats, bool) {
	s.mu.Lock()
	sess := s.sessions[name]
	s.mu.Unlock()
	if sess == nil {
		return SessionStats{}, false
	}
	return sess.stats(), true
}

// srvConn is the server side of one member connection. id is -1 until the
// session admits the connection, and in elastic sessions is re-assigned
// at episode boundaries (both writes happen at quiescent points, but
// diagnostics read it from arbitrary goroutines, hence atomic); the
// reader goroutine owns nextArrive's hot path, with the elastic boundary
// seeding it for freshly admitted members; gone/leftOK are guarded by the
// session mutex.
//
// The reader (Server.handle) is the connection's only goroutine, and
// reads through a wire.FrameConn of its own. Frames are written by
// whoever has one to send — the releaser, for every member in turn —
// through send or sendWait, one whole frame per hold of wmu. tw is the
// connection's non-blocking write capability (nil if it has none): a
// frame the socket takes whole is written inline, and only a socket that
// would block gets a goroutine, for the remainder of that one frame.
//
// Size (unsafe.Sizeof, amd64): 80 bytes, the 80-byte allocation class
// exactly.
type srvConn struct {
	conn net.Conn
	tw   wire.TryWriter
	wmu  sync.Mutex

	id         atomic.Int64
	nextArrive atomic.Uint64
	shard      bool // joined via ShardJoin: an aggregated-arrival member (a leaf barrierd)
	gone       bool // no longer a broadcast target
	leftOK     bool // departed via Leave; disconnection is not a failure

	// Shard members' last-reported aggregates, written by the reader
	// goroutine on each ShardArrive and read by the releaser when it
	// assembles the fleet-wide release (hence atomic).
	lastLocalP atomic.Int64
	lastSigma  atomic.Uint64 // float64 bits
}

func newSrvConn(conn net.Conn) *srvConn {
	c := &srvConn{conn: conn, tw: wire.TryWriterOf(conn)}
	c.id.Store(-1)
	return c
}

// tryWrite is the inline attempt: how much of buf the socket took
// without blocking. The caller holds wmu.
func (c *srvConn) tryWrite(buf []byte) (int, error) {
	if c.tw == nil {
		return 0, nil
	}
	return c.tw.TryWrite(buf)
}

// writeRest is the blocking write of what the inline attempt left,
// bounded by timeout. The caller holds wmu. The deadline is cleared
// afterwards: left armed it would expire between episodes, and a kernel
// socket refuses even a non-blocking write under an expired deadline.
func (c *srvConn) writeRest(rest []byte, timeout time.Duration) error {
	c.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := c.conn.Write(rest)
	c.conn.SetWriteDeadline(time.Time{})
	return err
}

// sendWait writes one pre-encoded frame and returns when it is written
// or has failed, blocking for up to timeout if the socket does. For
// callers that need the outcome before they go on: handshake replies and
// poison causes, each on a goroutine that may wait.
func (c *srvConn) sendWait(buf []byte, timeout time.Duration) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	n, err := c.tryWrite(buf)
	if err != nil || n == len(buf) {
		return err
	}
	return c.writeRest(buf[n:], timeout)
}

// send writes one fan-out frame of sess — a release, or the JoinResp
// admitting an elastic joiner — without ever blocking the caller, who
// has other members to release. A socket that takes the whole frame —
// the steady state — is written inline: no wake-up, no timer, no
// allocation. One that takes less keeps its write lock, so no other
// frame can cut into this one, and a one-off goroutine finishes the
// frame under it; so does a connection whose lock is already held by
// such a goroutine, or that has no non-blocking write at all. Either
// way buf is the caller's again when send returns. An error met inline
// is returned for the caller to act on once its fan-out is over; one met
// by the goroutine poisons the session from there: a member that cannot
// be written within the write timeout will never arrive again.
func (c *srvConn) send(buf []byte, sess *session) error {
	locked := c.wmu.TryLock()
	n := 0
	if locked {
		var err error
		n, err = c.tryWrite(buf)
		if err != nil || n == len(buf) {
			c.wmu.Unlock()
			return err
		}
	}
	c.handOff(buf[n:], locked, sess)
	return nil
}

// handOff starts the goroutine that finishes a frame send could not, on
// a copy of what is left of it. It is kept out of send so that the
// inline path carries none of the copy's code.
func (c *srvConn) handOff(rest []byte, locked bool, sess *session) {
	go c.finish(append([]byte(nil), rest...), locked, sess)
}

// finish writes rest under the write lock — the one send kept for it, or
// (locked false) one it waits for. It lives for at most the write timeout
// (plus, in the second case, that of the write ahead of it) and nothing
// waits for it: closing the connection fails its write.
func (c *srvConn) finish(rest []byte, locked bool, sess *session) {
	if !locked {
		c.wmu.Lock()
	}
	err := c.writeRest(rest, sess.srv.opt.writeTimeout())
	c.wmu.Unlock()
	if err != nil {
		sess.unreachable(c, err)
	}
}

// handle runs one connection: join handshake, then the arrive/leave
// read loop.
func (s *Server) handle(conn net.Conn) {
	c := newSrvConn(conn)
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	fc := wire.NewFrameConn(conn) // the read half only: frames are written through c

	conn.SetReadDeadline(time.Now().Add(joinTimeout))
	req, err := fc.ReadFrame()
	if err != nil || (req.Type != wire.TypeJoinReq && req.Type != wire.TypeShardJoin) {
		if errors.Is(err, wire.ErrVersionMismatch) {
			// The one decode failure worth answering: tell the
			// mixed-revision peer why it is being refused before hanging up,
			// so the operator sees "protocol version mismatch" on both ends
			// instead of a silent disconnect on one.
			if buf, encErr := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeJoinResp, Err: err.Error()}); encErr == nil {
				c.sendWait(buf, s.opt.writeTimeout())
			}
			s.opt.logf("refused %s: %v", conn.RemoteAddr(), err)
		}
		return // never joined; nothing to poison
	}
	c.shard = req.Type == wire.TypeShardJoin
	sess, resp, deferred := s.join(c, req)
	if deferred {
		// Elastic admission: the JoinResp is sent by the episode boundary
		// that admits this connection; until then the client blocks in
		// Join and sends nothing, so the read loop just parks.
		conn.SetReadDeadline(time.Time{})
		s.opt.logf("session %s: client pending admission (%s)", sess.name, conn.RemoteAddr())
	} else {
		buf, encErr := wire.AppendFrame(nil, resp)
		if encErr != nil || c.sendWait(buf, s.opt.writeTimeout()) != nil || sess == nil {
			if sess != nil {
				sess.disconnect(c, fmt.Errorf("join response write failed"))
			}
			return
		}
		conn.SetReadDeadline(time.Time{})
		s.opt.logf("session %s: client %d joined (%s)", sess.name, c.id.Load(), conn.RemoteAddr())
	}

	for {
		f, err := fc.ReadFrame()
		if err != nil {
			sess.disconnect(c, err)
			return
		}
		switch {
		case (f.Type == wire.TypeArrive || f.Type == wire.TypeArriveData) && !c.shard,
			f.Type == wire.TypeShardArrive && c.shard:
			sess.arrive(c, f)
		case f.Type == wire.TypePoison && c.shard:
			// A shard handing up its local poison cause: fail the whole
			// fleet session with the original error, identity intact.
			sess.poison(fmt.Errorf("netbarrier: shard %d poisoned: %w", c.id.Load(), softbarrier.DecodePoisonCause(f.Cause)))
			return
		case f.Type == wire.TypePoison:
			// A member aborting the session with a cause (Client.Poison):
			// wrap with %w so errors.Is/As identity survives the fan-out —
			// and, on a leaf, the trip through the root to other shards.
			sess.poison(fmt.Errorf("netbarrier: member %d poisoned the session: %w", c.id.Load(), softbarrier.DecodePoisonCause(f.Cause)))
			return
		case f.Type == wire.TypeLeave:
			sess.leave(c)
			return
		default:
			sess.poison(fmt.Errorf("netbarrier: protocol violation: member %d sent frame %s", c.id.Load(), wire.FrameName(f.Type)))
			return
		}
	}
}

// join resolves a JoinReq against the session table, creating the session
// on first contact. It returns the session (nil on refusal), the JoinResp
// to send, and — for elastic sessions — whether the join was deferred to
// the next episode boundary (the boundary then sends the JoinResp).
func (s *Server) join(c *srvConn, req *wire.Frame) (*session, wire.Frame, bool) {
	refuse := func(msg string) (*session, wire.Frame, bool) {
		return nil, wire.Frame{Type: wire.TypeJoinResp, Err: msg}, false
	}
	if req.Name == "" {
		return refuse("empty session name")
	}
	if req.P < 1 || req.P > maxP {
		return refuse(fmt.Sprintf("participant count %d outside [1, %d]", req.P, maxP))
	}
	if req.ID >= req.P {
		// Checked before the session table so a doomed join can never be
		// the one that instantiates a session.
		return refuse(fmt.Sprintf("id %d out of range for %d participants", req.ID, req.P))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return refuse("server closed")
	}
	sess := s.sessions[req.Name]
	if sess == nil {
		sess = newSession(s, req.Name, req.P, c.shard)
		s.sessions[req.Name] = sess
	}
	s.mu.Unlock()

	id, refusal, deferred := sess.join(c, req.P, req.ID)
	if refusal != "" {
		return refuse(refusal)
	}
	if deferred {
		return sess, wire.Frame{}, true
	}
	return sess, wire.Frame{
		Type:    wire.TypeJoinResp,
		ID:      id,
		P:       sess.tree.Participants(),
		Degree:  sess.tree.Degree(),
		Episode: sess.episode.Load(),
	}, false
}
