package netbarrier

import "softbarrier/internal/wire"

// JoinShard sends a wire.TypeShardJoin frame: the comment is not code.
func (c *Client) JoinShard() error {
	return c.send(wire.Frame{Type: wire.TypeShardJoin})
}

func (c *Client) ArriveShard() error {
	return c.send(wire.Frame{Type: wire.TypeShardArrive})
}

type Client struct{ send func(wire.Frame) error }
