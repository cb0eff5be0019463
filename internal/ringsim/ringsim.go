// Package ringsim models the KSR1-style interconnect at the message
// level: a unidirectional slotted ring whose links are occupied
// for one slot time per passing message. Messages pipeline naturally
// (spatial reuse) and queue FIFO at each link, so converging traffic —
// the hot spot of Pfister & Norton that the paper's §2 cites as the
// motivation for combining — creates honest link contention.
//
// The barrier experiments use it to compare the *network* cost of flat
// versus combining-tree gathers (EXT8), complementing the counter-
// serialization cost the rest of the study models.
package ringsim

import (
	"fmt"

	"softbarrier/internal/eventsim"
)

// Ring is one unidirectional slotted ring of N nodes. Link i carries
// traffic from node i to node (i+1) mod N; each message occupies a link
// for SlotTime.
type Ring struct {
	N        int
	SlotTime float64
	links    []eventsim.Resource
}

// NewRing creates a ring of n nodes with the given per-hop slot time.
func NewRing(n int, slotTime float64) *Ring {
	if n < 2 {
		panic("ringsim: ring needs at least two nodes")
	}
	if slotTime <= 0 {
		panic("ringsim: slot time must be positive")
	}
	r := &Ring{N: n, SlotTime: slotTime, links: make([]eventsim.Resource, n)}
	for i := range r.links {
		r.links[i].Name = fmt.Sprintf("link%d", i)
	}
	return r
}

// Transit moves a message from src to dst starting at the current
// simulated time, hopping link by link, and calls done with the delivery
// time. src == dst delivers immediately.
func (r *Ring) Transit(sim *eventsim.Simulator, src, dst int, done func(t float64)) {
	if src < 0 || src >= r.N || dst < 0 || dst >= r.N {
		panic("ringsim: node out of range")
	}
	var hop func(node int)
	hop = func(node int) {
		if node == dst {
			done(sim.Now())
			return
		}
		_, end := r.links[node].Use(sim.Now(), r.SlotTime)
		next := (node + 1) % r.N
		sim.ScheduleAt(end, func() { hop(next) })
	}
	hop(src)
}

// MaxLinkUtilization returns the largest fraction of the interval
// [0, horizon] any link spent busy, a hot-spot indicator.
func (r *Ring) MaxLinkUtilization(horizon float64) float64 {
	if horizon <= 0 {
		panic("ringsim: non-positive horizon")
	}
	max := 0.0
	for i := range r.links {
		if u := r.links[i].TotalService / horizon; u > max {
			max = u
		}
	}
	return max
}

// Reset clears all link state.
func (r *Ring) Reset() {
	for i := range r.links {
		r.links[i].Reset()
	}
}
