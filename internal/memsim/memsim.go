// Package memsim models a directory-based MSI cache-coherence protocol at
// the granularity the barrier study depends on: cache lines holding locks
// and counters, with invalidations and remote transfers priced in time.
//
// It grounds two abstractions the higher layers take as given:
//
//   - the constant counter-update time t_c: under a queue lock, each
//     update is one owner-to-owner line transfer, so the per-update
//     service time is flat in the number of contenders (EXT7 measures
//     this), matching the paper's constant-t_c simulator;
//   - the lock-degradation knob of barriersim (EXT5): under a
//     test-and-set lock, spinning waiters keep re-acquiring the line, so
//     the effective update time grows with the queue — the mechanistic
//     origin of the degradation factor;
//
// and it reproduces Agarwal & Cherian's observation (§2) that
// synchronization references can dominate invalidation traffic.
package memsim

import (
	"fmt"
	"math/bits"

	"softbarrier/internal/eventsim"
)

// MaxProcs bounds the processor count (sharer sets are one word).
const MaxProcs = 64

// lineState is a cache line's global coherence state.
type lineState uint8

const (
	invalid lineState = iota
	shared
	modified
)

// Line is one cache line tracked by the directory.
type Line struct {
	state   lineState
	owner   int    // valid when state == modified
	sharers uint64 // bitset of caches holding the line (state == shared)
	res     eventsim.Resource
}

// Stats aggregates coherence traffic.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64 // individual sharer invalidations sent
	Transfers     uint64 // cache-to-cache transfers
}

// Latencies prices the protocol actions, in seconds. The defaults are the
// KSR1-flavoured figures of internal/ksr.
type Latencies struct {
	// Hit is a local cache hit.
	Hit float64
	// Memory is a fetch served by the home directory from memory.
	Memory float64
	// Transfer is a cache-to-cache transfer (dirty miss).
	Transfer float64
	// Invalidate is the cost of invalidating one sharer.
	Invalidate float64
}

// DefaultLatencies returns latencies matching the ksr machine model's
// order of magnitude.
func DefaultLatencies() Latencies {
	return Latencies{Hit: 1e-6, Memory: 8.75e-6, Transfer: 8.75e-6, Invalidate: 2e-6}
}

// System is a set of caches and directory-tracked lines.
type System struct {
	P   int
	Lat Latencies

	lines map[int]*Line
	// Stats per line class: callers tag lines as synchronization or data.
	SyncStats Stats
	DataStats Stats
	syncLines map[int]bool
}

// New creates a system of p caches. It panics for p outside [1, MaxProcs].
func New(p int, lat Latencies) *System {
	if p < 1 || p > MaxProcs {
		panic(fmt.Sprintf("memsim: %d processors outside [1, %d]", p, MaxProcs))
	}
	return &System{P: p, Lat: lat, lines: make(map[int]*Line), syncLines: make(map[int]bool)}
}

// MarkSync tags a line as synchronization state (lock or counter), for the
// invalidation-share accounting.
func (s *System) MarkSync(line int) { s.syncLines[line] = true }

func (s *System) line(id int) *Line {
	l, ok := s.lines[id]
	if !ok {
		l = &Line{state: invalid, owner: -1}
		l.res.Name = fmt.Sprintf("line%d", id)
		s.lines[id] = l
	}
	return l
}

func (s *System) statsFor(line int) *Stats {
	if s.syncLines[line] {
		return &s.SyncStats
	}
	return &s.DataStats
}

// Access performs a read (write=false) or read-modify-write (write=true)
// of the line by processor proc, requested at time now, and returns the
// completion time. Directory transactions on a line serialize in request
// order; requests must therefore be issued in non-decreasing time order
// per line (as when driven from a discrete-event loop).
func (s *System) Access(proc, line int, write bool, now float64) float64 {
	if proc < 0 || proc >= s.P {
		panic("memsim: processor out of range")
	}
	l := s.line(line)
	st := s.statsFor(line)
	bit := uint64(1) << uint(proc)

	var cost float64
	switch {
	case !write && l.state == shared && l.sharers&bit != 0,
		l.state == modified && l.owner == proc:
		// Local hit; no directory involvement, but keep the line's clock
		// consistent by serializing through it at zero extra cost.
		cost = s.Lat.Hit
		st.Hits++
	case !write:
		st.Misses++
		if l.state == modified {
			cost = s.Lat.Transfer // fetch from the dirty owner
			st.Transfers++
			l.sharers = (uint64(1) << uint(l.owner)) | bit
		} else {
			cost = s.Lat.Memory
			l.sharers |= bit
		}
		l.state = shared
		l.owner = -1
	default: // write without ownership
		st.Misses++
		switch l.state {
		case modified:
			cost = s.Lat.Transfer + s.Lat.Invalidate
			st.Transfers++
			st.Invalidations++
		case shared:
			others := bits.OnesCount64(l.sharers &^ bit)
			cost = s.Lat.Memory + float64(others)*s.Lat.Invalidate
			if l.sharers&bit != 0 {
				// Upgrade from shared: no data fetch needed.
				cost = float64(others) * s.Lat.Invalidate
				if others == 0 {
					cost = s.Lat.Hit
				}
			}
			st.Invalidations += uint64(others)
		default:
			cost = s.Lat.Memory
		}
		l.state = modified
		l.owner = proc
		l.sharers = 0
	}
	_, end := l.res.Use(now, cost)
	return end
}
