package eventsim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var s Simulator
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, tm := range times {
		tm := tm
		s.ScheduleAt(tm, func() { got = append(got, tm) })
	}
	end := s.Run()
	if end != 5 {
		t.Fatalf("final time %v, want 5", end)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Fatalf("ran %d events, want %d", len(got), len(times))
	}
}

func TestTieBreakIsFIFO(t *testing.T) {
	var s Simulator
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(1, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var s Simulator
	var trace []float64
	s.ScheduleAt(1, func() {
		trace = append(trace, s.Now())
		s.Schedule(2, func() { trace = append(trace, s.Now()) })
		s.Schedule(0.5, func() { trace = append(trace, s.Now()) })
	})
	s.Run()
	want := []float64{1, 1.5, 3}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var s Simulator
	s.ScheduleAt(10, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.ScheduleAt(5, func() {})
}

func TestResourceSerializesOverlapping(t *testing.T) {
	var r Resource
	s1, e1 := r.Use(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Fatalf("first use [%v, %v), want [0, 10)", s1, e1)
	}
	s2, e2 := r.Use(5, 10)
	if s2 != 10 || e2 != 20 {
		t.Fatalf("queued use [%v, %v), want [10, 20)", s2, e2)
	}
	s3, e3 := r.Use(50, 10)
	if s3 != 50 || e3 != 60 {
		t.Fatalf("idle use [%v, %v), want [50, 60)", s3, e3)
	}
}

func TestResourceMetrics(t *testing.T) {
	var r Resource
	r.Use(0, 10)
	r.Use(5, 10) // waits 5
	r.Use(6, 10) // waits 14
	if r.TotalService != 30 {
		t.Fatalf("TotalService = %v, want 30", r.TotalService)
	}
	if r.FreeAt() != 30 {
		t.Fatalf("FreeAt = %v, want 30", r.FreeAt())
	}
	r.Reset()
	if r.TotalService != 0 || r.FreeAt() != 0 {
		t.Fatal("Reset must clear the metric and the schedule state")
	}
}

func TestResourceBackwardsRequestPanics(t *testing.T) {
	var r Resource
	r.Use(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards request did not panic")
		}
	}()
	r.Use(5, 1)
}

func TestResourceNegativeServicePanics(t *testing.T) {
	var r Resource
	defer func() {
		if recover() == nil {
			t.Fatal("negative service did not panic")
		}
	}()
	r.Use(0, -1)
}

// Property: for any request sequence with non-decreasing timestamps, grants
// do not overlap, respect request order, and never start before the request.
func TestResourceNoOverlapProperty(t *testing.T) {
	f := func(rawArrivals []uint16, rawService []uint8) bool {
		var r Resource
		now := 0.0
		prevEnd := 0.0
		n := len(rawArrivals)
		if len(rawService) < n {
			n = len(rawService)
		}
		for i := 0; i < n; i++ {
			now += float64(rawArrivals[i]) / 100
			svc := float64(rawService[i]) / 10
			start, end := r.Use(now, svc)
			if start < now || end != start+svc || start < prevEnd {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
