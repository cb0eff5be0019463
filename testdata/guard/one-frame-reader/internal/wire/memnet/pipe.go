package memnet

import "softbarrier/internal/wire"

func pipe(fc *wire.FrameConn, f *wire.Frame) error { return fc.ReadFrameInto(f) }
