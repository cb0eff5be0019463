// Package eventsim implements a minimal deterministic discrete-event
// simulation engine: a simulated clock, an event heap, and FIFO resources
// with exclusive service times. The barrier simulator is built on top of it;
// the engine itself knows nothing about barriers.
//
// Determinism: events scheduled for the same instant fire in scheduling
// order (a monotone sequence number breaks ties), so a simulation run is a
// pure function of its inputs.
package eventsim

import (
	"container/heap"
	"fmt"
	"math"
)

// event is a scheduled callback.
type event struct {
	t   float64
	seq uint64
	fn  func()
}

// eventHeap orders events by (time, sequence).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Simulator is a discrete-event simulator. The zero value is ready to use
// with the clock at 0.
type Simulator struct {
	now    float64
	seq    uint64
	events eventHeap
}

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.now }

// ScheduleAt schedules fn to run at absolute simulated time t. Scheduling in
// the past (t < Now) panics: it would silently corrupt causality.
func (s *Simulator) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("eventsim: schedule at %v before now %v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("eventsim: schedule at NaN")
	}
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, fn: fn})
}

// Schedule schedules fn to run delay time units from now. Negative delays
// panic.
func (s *Simulator) Schedule(delay float64, fn func()) {
	s.ScheduleAt(s.now+delay, fn)
}

// Step executes the single earliest pending event and reports whether one
// was executed.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := heap.Pop(&s.events).(event)
	s.now = e.t
	e.fn()
	return true
}

// Run executes events in time order until the event set is exhausted. It
// returns the final simulated time.
func (s *Simulator) Run() float64 {
	for s.Step() {
	}
	return s.now
}
