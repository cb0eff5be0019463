package netbarrier

import "softbarrier/internal/wire"

func isShard(f *wire.Frame) bool { return f.Type == wire.TypeShardJoin }

type Options struct {
	MaxP int
}
