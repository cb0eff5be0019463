package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"softbarrier/internal/netbarrier"
)

// mix is splitmix64's finalizer: the one place seeds are derived from
// (seed, stream) pairs, so every input of a run is a function of -seed.
func mix(seed, stream uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ledger holds one episode's seeded AllReduce contributions and the sum
// the barrier must hand back. Contributions and results are big-endian
// (collective.go); the values use all 64 bits, so a ledger kept in the
// other byte order, or one missing a contribution, does not pass.
type ledger struct {
	seed uint64
	in   [][]byte // in[i] is member i's 8-byte contribution
	want [8]byte  // wrapping sum of the episode's contributions
}

func newLedger(seed uint64, members int) *ledger {
	l := &ledger{seed: seed, in: make([][]byte, members)}
	backing := make([]byte, 8*members)
	for i := range l.in {
		l.in[i] = backing[8*i : 8*i+8]
	}
	return l
}

// fill draws the contributions of one episode and records their sum.
func (l *ledger) fill(episode uint64) {
	var sum uint64
	base := episode * uint64(len(l.in))
	for i, b := range l.in {
		v := mix(l.seed, base+uint64(i))
		binary.BigEndian.PutUint64(b, v)
		sum += v
	}
	binary.BigEndian.PutUint64(l.want[:], sum)
}

// ok reports whether got is the episode's sum.
func (l *ledger) ok(got []byte) bool { return bytes.Equal(got, l.want[:]) }

// checkRelease verifies what one member got back for an episode: the
// expected episode index and cohort size, and on collective sessions the
// ledger's sum.
func checkRelease(rel netbarrier.Release, episode uint64, p int, l *ledger) error {
	if rel.Episode != episode {
		return fmt.Errorf("release for episode %d, want %d", rel.Episode, episode)
	}
	if rel.P != p {
		return fmt.Errorf("episode %d released with P=%d, want %d", episode, rel.P, p)
	}
	if l != nil && !l.ok(rel.Result) {
		return fmt.Errorf("episode %d result %x, want %x", episode, rel.Result, l.want)
	}
	return nil
}
