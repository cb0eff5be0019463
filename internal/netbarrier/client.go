package netbarrier

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"softbarrier"
	"softbarrier/internal/wire"
)

// Release is what a completed episode looks like from a client: the
// episode index, the configuration the next episode will run at — tree
// degree, participant count and epoch, all of which move when the server
// re-plans or (elastic sessions) the membership changes — the episode's
// measured arrival spread, and the session's EWMA σ estimate: the same
// telemetry a local Observer would see, one frame per episode.
type Release struct {
	Episode uint64
	Degree  int
	P       int     // the next episode's participant count
	Epoch   uint64  // the next episode's configuration epoch
	Spread  float64 // this episode's arrival spread, seconds
	Sigma   float64 // the session's EWMA σ estimate, seconds
	Result  []byte  // collective sessions: the episode's folded result
}

// Client is one participant of a networked barrier session. The calling
// pattern mirrors softbarrier.PhasedBarrier: Arrive announces arrival
// without blocking (the fuzzy-barrier half — do slack work after it),
// Await blocks until the server releases the episode, Wait is both. A
// client is not safe for concurrent use; like a participant id, it
// belongs to one goroutine.
//
// Errors are sticky: once a wait returns a poison cause (or the
// connection fails), every subsequent call returns the same error, just
// as waits on a poisoned in-process barrier do. The cause survives the
// wire with its identity intact — errors.As recovers a
// *softbarrier.StallError, errors.Is matches context.Canceled and friends.
type Client struct {
	fc *wire.FrameConn

	joined  bool
	left    bool
	id      int
	p       int
	episode uint64
	err     error
}

// Dial connects to a barrierd server with no connect bound. Join must be
// called next.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout is Dial with the connection attempt bounded by timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialVia(wire.DefaultTCP, addr, timeout)
}

// DialVia dials through an explicit transport — a wire.TCP with custom
// keepalive, an in-process memnet, a chaos wrapper — and wraps the
// connection as a Client. Join must be called next.
func DialVia(d wire.Dialer, addr string, timeout time.Duration) (*Client, error) {
	conn, err := d.Dial(addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (from a wire.Dialer, or
// anything else that speaks the wire protocol) as a Client. Join must be
// called next.
func NewClient(conn net.Conn) *Client {
	return &Client{fc: wire.NewFrameConn(conn)}
}

// Join enters the named session as one of p participants, letting the
// server pick the participant id.
func (c *Client) Join(session string, p int) error { return c.JoinAs(session, p, -1) }

// JoinAs is Join with an explicit participant id request.
func (c *Client) JoinAs(session string, p, id int) error {
	if c.err != nil {
		return c.err
	}
	if c.joined {
		return c.fail(errors.New("netbarrier: already joined"))
	}
	if err := c.fc.WriteFrame(wire.Frame{Type: wire.TypeJoinReq, Name: session, P: p, ID: id}); err != nil {
		return c.fail(err)
	}
	resp, err := c.fc.ReadFrame()
	if err != nil {
		return c.fail(fmt.Errorf("netbarrier: join failed: %w", err))
	}
	if resp.Type != wire.TypeJoinResp {
		return c.fail(fmt.Errorf("netbarrier: join answered with frame type %d", resp.Type))
	}
	if resp.Err != "" {
		return c.fail(fmt.Errorf("netbarrier: join refused: %s", resp.Err))
	}
	c.joined = true
	c.id = resp.ID
	c.p = resp.P
	c.episode = resp.Episode
	return nil
}

// ID returns the participant id the server assigned.
func (c *Client) ID() int { return c.id }

// Participants returns the session's participant count as of the last
// release (or the join) — in an elastic session it moves as members join
// and leave.
func (c *Client) Participants() int { return c.p }

// Episode returns the episode index the next Arrive will announce: the
// join's episode, advancing by one per release. Ledger-keeping callers
// (the acceptance suites) read it to key contributions by episode.
func (c *Client) Episode() uint64 { return c.episode }

// Err returns the sticky error, or nil while the client is healthy.
func (c *Client) Err() error { return c.err }

// Arrive announces arrival at the current episode without waiting for its
// completion — the fuzzy-barrier arrival half.
func (c *Client) Arrive() error {
	if c.err != nil {
		return c.err
	}
	if !c.joined {
		return c.fail(errors.New("netbarrier: arrive before join"))
	}
	if err := c.fc.WriteFrame(wire.Frame{Type: wire.TypeArrive, Episode: c.episode}); err != nil {
		return c.fail(err)
	}
	return nil
}

// ArriveReduce announces arrival carrying a collective contribution — the
// fuzzy half of AllReduce. The session must have been configured with the
// matching op server-side (barrierd -collective); in must be exactly the
// op's width. The episode's Release arrives as a Result frame whose
// folded bytes Await surfaces in Release.Result.
func (c *Client) ArriveReduce(in []byte) error {
	if c.err != nil {
		return c.err
	}
	if !c.joined {
		return c.fail(errors.New("netbarrier: arrive before join"))
	}
	if err := c.fc.WriteFrame(wire.Frame{Type: wire.TypeArriveData, Episode: c.episode, Data: in}); err != nil {
		return c.fail(err)
	}
	return nil
}

// Poison delivers a poison cause upstream: the session is aborted for
// every participant with err as the wire-encoded cause, exactly as if the
// server had poisoned it locally, so the other members' waits see the
// original error (errors.Is/As identity intact) instead of the anonymous
// "disconnected" a bare connection drop would produce. The client is
// failed with err afterwards; the connection is left for the caller to
// close.
func (c *Client) Poison(err error) error {
	if c.err != nil {
		return c.err
	}
	if !c.joined {
		return c.fail(errors.New("netbarrier: poison before join"))
	}
	if werr := c.fc.WriteFrame(wire.Frame{Type: wire.TypePoison, Cause: softbarrier.EncodePoisonCause(nil, err)}); werr != nil {
		return c.fail(werr)
	}
	c.fail(err)
	return nil
}

// AllReduce is ArriveReduce followed by Await: contribute in, block until
// every participant has contributed, and return the folded result (the
// deterministic ascending-id fold for non-commutative ops). The result
// slice is owned by the caller.
func (c *Client) AllReduce(in []byte) ([]byte, error) {
	if err := c.ArriveReduce(in); err != nil {
		return nil, err
	}
	rel, err := c.Await()
	if err != nil {
		return nil, err
	}
	if rel.Result == nil {
		return nil, c.fail(errors.New("netbarrier: session has no collective op (release carried no result)"))
	}
	return rel.Result, nil
}

// Await blocks until the server releases the episode Arrive announced, or
// delivers a poison cause. It returns the episode's Release telemetry.
func (c *Client) Await() (Release, error) {
	if c.err != nil {
		return Release{}, c.err
	}
	f, err := c.fc.ReadFrame()
	if err != nil {
		return Release{}, c.fail(fmt.Errorf("netbarrier: connection failed awaiting release: %w", err))
	}
	switch f.Type {
	case wire.TypeRelease, wire.TypeResult:
		c.episode = f.Episode + 1
		if f.P > 0 {
			c.p = f.P
		}
		rel := Release{Episode: f.Episode, Degree: f.Degree, P: f.P, Epoch: f.Epoch, Spread: f.Spread, Sigma: f.Sigma}
		if f.Type == wire.TypeResult {
			rel.Result = append([]byte(nil), f.Data...)
		}
		return rel, nil
	case wire.TypePoison:
		return Release{}, c.fail(softbarrier.DecodePoisonCause(f.Cause))
	default:
		return Release{}, c.fail(fmt.Errorf("netbarrier: unexpected frame %s while awaiting release", wire.FrameName(f.Type)))
	}
}

// Wait is Arrive followed by Await: one whole barrier episode.
func (c *Client) Wait() (Release, error) {
	if err := c.Arrive(); err != nil {
		return Release{}, err
	}
	return c.Await()
}

// AwaitCtx is Await with cancellation. If ctx ends first, the wait is
// abandoned: the connection is no longer usable mid-stream, so the client
// becomes permanently failed with ctx's error, and closing it lets the
// server poison the session for the remaining participants — the same
// "cancelled participant kills the episode" semantics as the in-process
// WaitCtx, with the poison propagation running server-side.
func (c *Client) AwaitCtx(ctx context.Context) (Release, error) {
	if c.err != nil {
		return Release{}, c.err
	}
	if err := ctx.Err(); err != nil {
		return Release{}, c.fail(err)
	}
	stop := context.AfterFunc(ctx, func() {
		c.fc.SetReadDeadline(time.Unix(0, 1)) // unblock the pending read
	})
	r, err := c.Await()
	if !stop() {
		// ctx fired: report its error, whatever state the aborted read left.
		<-ctx.Done()
		c.err = ctx.Err()
		return Release{}, c.err
	}
	return r, err
}

// WaitCtx is Arrive followed by AwaitCtx.
func (c *Client) WaitCtx(ctx context.Context) (Release, error) {
	if err := c.Arrive(); err != nil {
		return Release{}, err
	}
	return c.AwaitCtx(ctx)
}

// Leave departs the session gracefully — call it between episodes, when
// this participant will not arrive again — and closes the connection.
// Unlike a bare Close, the server does not treat the departure as a
// failure; the session ends when every participant has left.
func (c *Client) Leave() error {
	if c.err == nil && c.joined && !c.left {
		c.left = true
		if err := c.fc.WriteFrame(wire.Frame{Type: wire.TypeLeave}); err != nil {
			c.fail(err)
		}
	}
	return c.fc.Close()
}

// Close abandons the connection without leaving. If the session is still
// live, the server will poison it — every other participant gets a
// "disconnected" cause instead of a hang. Use Leave for clean shutdown.
func (c *Client) Close() error { return c.fc.Close() }

// fail records the sticky error.
func (c *Client) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return c.err
}
