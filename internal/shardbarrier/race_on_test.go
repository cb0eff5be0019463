//go:build race

package shardbarrier

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
