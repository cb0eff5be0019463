package runtime

import (
	"testing"
	"unsafe"
)

// TestArrivalShardIsOneCacheLine pins the sharding invariant: eight
// counters pack exactly one 64-byte line, so a watchdog scan touches p/8
// lines instead of p.
func TestArrivalShardIsOneCacheLine(t *testing.T) {
	if got := unsafe.Sizeof(arrivalShard{}); got != 64 {
		t.Fatalf("arrivalShard is %d bytes, want 64 (one cache line)", got)
	}
}

func TestArrivalsNoteCountAcrossShards(t *testing.T) {
	// 20 participants span 2.5 shards, exercising the partial last shard.
	const p = 20
	a := NewArrivals(p)
	if a.Len() != p {
		t.Fatalf("Len = %d, want %d", a.Len(), p)
	}
	for id := 0; id < p; id++ {
		for k := 0; k <= id; k++ {
			a.Note(id)
		}
	}
	for id := 0; id < p; id++ {
		if got := a.Count(id); got != uint64(id+1) {
			t.Fatalf("Count(%d) = %d, want %d", id, got, id+1)
		}
	}
	snap := a.Snapshot(nil)
	if len(snap) != p {
		t.Fatalf("Snapshot len = %d, want %d", len(snap), p)
	}
	for id, v := range snap {
		if v != uint64(id+1) {
			t.Fatalf("Snapshot[%d] = %d, want %d", id, v, id+1)
		}
	}
	// Participant p-1 has the max (p); everyone else is missing.
	missing := Missing(snap)
	if len(missing) != p-1 {
		t.Fatalf("Missing = %v, want the %d participants below the max", missing, p-1)
	}
}

func TestArrivalsScanAndResize(t *testing.T) {
	a := NewArrivals(9) // one full shard plus one counter
	snap, changed, equal := a.Scan(nil)
	if !changed || !equal {
		t.Fatalf("first scan: changed=%v equal=%v, want true/true (fresh slice counts as progress; all zero)", changed, equal)
	}
	a.Note(3)
	snap, changed, equal = a.Scan(snap)
	if !changed || equal {
		t.Fatalf("after one arrival: changed=%v equal=%v, want true/false", changed, equal)
	}
	snap, changed, equal = a.Scan(snap)
	if changed || equal {
		t.Fatalf("frozen mid-episode: changed=%v equal=%v, want false/false (the stall signature)", changed, equal)
	}
	for id := 0; id < 9; id++ {
		if id != 3 {
			a.Note(id)
		}
	}
	snap, changed, equal = a.Scan(snap)
	if !changed || !equal {
		t.Fatalf("episode complete: changed=%v equal=%v, want true/true", changed, equal)
	}

	a.Resize(17)
	if a.Len() != 17 {
		t.Fatalf("Len after Resize = %d, want 17", a.Len())
	}
	snap, changed, equal = a.Scan(snap)
	if !changed || !equal {
		t.Fatalf("post-resize scan: changed=%v equal=%v, want true/true (resize restarts the clock)", changed, equal)
	}
	if len(snap) != 17 {
		t.Fatalf("post-resize snapshot len = %d, want 17", len(snap))
	}

	a.Note(16)
	a.Reset()
	for id := 0; id < 17; id++ {
		if got := a.Count(id); got != 0 {
			t.Fatalf("Count(%d) after Reset = %d, want 0", id, got)
		}
	}
}

// TestRecorderShrinkToZero is the regression test for the empty-slot-array
// panic: a recorder resized to zero participants must measure and report
// lags without indexing slots[0].
func TestRecorderShrinkToZero(t *testing.T) {
	r := New(4, nil, nil, 1)
	for id := 0; id < 4; id++ {
		r.Arrive(id, 0)
	}
	if lags := r.LagsInto(0, nil); len(lags) != 4 {
		t.Fatalf("LagsInto before shrink: %d lags, want 4", len(lags))
	}
	r.Resize(0)
	dst := make([]float64, 0, 8)
	if lags := r.LagsInto(1, dst); len(lags) != 0 {
		t.Fatalf("LagsInto on a zero-p recorder = %v, want empty", lags)
	}
	m, ok := r.Measure(1)
	if !ok {
		t.Fatal("Measure on a zero-p recorder reported not-ok; want an empty measurement")
	}
	if m.Spread != 0 || m.First != 0 || m.Last != 0 {
		t.Fatalf("zero-p measurement = %+v, want zero arrivals", m)
	}
	r.Emit(m, Extra{}) // must not panic either
}
