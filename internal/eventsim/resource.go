package eventsim

import "fmt"

// Resource models a unit-capacity FIFO server: each Use occupies the
// resource exclusively for its service time, and requests are served in the
// order they are issued. The barrier simulator gives every combining-tree
// counter one Resource; an update's service time is the counter-update
// latency t_c.
//
// Correct FIFO behaviour relies on requests being issued in non-decreasing
// time order, which holds whenever Use is called from inside simulator
// events (the engine fires events in time order). Use panics if called with
// a timestamp that goes backwards, as that indicates the caller broke the
// discipline.
type Resource struct {
	// Name labels the resource in diagnostics.
	Name string

	nextFree float64
	lastReq  float64

	// TotalService is the cumulative service time granted, cleared by
	// Reset.
	TotalService float64
}

// Use requests the resource at time now for the given service duration and
// returns the interval [start, end) during which the request holds the
// resource. service must be non-negative.
func (r *Resource) Use(now, service float64) (start, end float64) {
	if now < r.lastReq {
		panic(fmt.Sprintf("eventsim: resource %q request at %v after one at %v", r.Name, now, r.lastReq))
	}
	if service < 0 {
		panic("eventsim: negative service time")
	}
	r.lastReq = now
	start = now
	if r.nextFree > start {
		start = r.nextFree
	}
	end = start + service
	r.nextFree = end
	r.TotalService += service
	return start, end
}

// FreeAt returns the earliest time a new request issued now would start
// service.
func (r *Resource) FreeAt() float64 { return r.nextFree }

// Reset returns the resource to an idle state at time 0 and clears
// TotalService.
func (r *Resource) Reset() {
	r.nextFree = 0
	r.lastReq = 0
	r.TotalService = 0
}
