//go:build !race

package shardbarrier

// raceEnabled reports whether the race detector is compiled in. The alloc
// gate skips under it: its instrumentation allocates.
const raceEnabled = false
