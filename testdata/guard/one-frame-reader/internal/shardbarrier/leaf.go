package shardbarrier

import "softbarrier/internal/wire"

type link struct{ readFrameInto func(*wire.Frame) error }

func (lk *link) ReadFrameIntoScratch(f *wire.Frame) error { return lk.readFrameInto(f) }
