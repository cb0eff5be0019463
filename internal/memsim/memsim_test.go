package memsim

import (
	"math"
	"testing"
)

func lat() Latencies { return DefaultLatencies() }

func TestReadAfterWriteIsHit(t *testing.T) {
	s := New(4, lat())
	end := s.Access(0, 7, true, 0)
	end2 := s.Access(0, 7, false, end)
	if math.Abs((end2-end)-lat().Hit) > 1e-15 {
		t.Errorf("read after own write cost %v, want hit %v", end2-end, lat().Hit)
	}
	if s.DataStats.Hits != 1 {
		t.Errorf("hits = %d", s.DataStats.Hits)
	}
}

func TestDirtyMissTransfers(t *testing.T) {
	s := New(4, lat())
	end := s.Access(0, 7, true, 0) // proc 0 owns the line dirty
	end2 := s.Access(1, 7, false, end)
	if got := end2 - end; got != lat().Transfer {
		t.Errorf("dirty read miss cost %v, want transfer %v", got, lat().Transfer)
	}
	if s.DataStats.Transfers != 1 {
		t.Errorf("transfers = %d", s.DataStats.Transfers)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	s := New(8, lat())
	now := 0.0
	// Three readers share the line.
	for proc := 0; proc < 3; proc++ {
		now = s.Access(proc, 7, false, now)
	}
	before := s.DataStats.Invalidations
	// Proc 3 writes: all three sharers invalidated (3 is not a sharer).
	now2 := s.Access(3, 7, true, now)
	if got := s.DataStats.Invalidations - before; got != 3 {
		t.Errorf("invalidations = %d, want 3", got)
	}
	want := lat().Memory + 3*lat().Invalidate
	if got := now2 - now; math.Abs(got-want) > 1e-12 {
		t.Errorf("write cost %v, want %v", got, want)
	}
}

func TestUpgradeFromSharedSkipsFetch(t *testing.T) {
	s := New(4, lat())
	now := s.Access(0, 7, false, 0)
	now = s.Access(1, 7, false, now)
	// Proc 0 upgrades: one invalidation, no data fetch.
	end := s.Access(0, 7, true, now)
	if got := end - now; math.Abs(got-lat().Invalidate) > 1e-12 {
		t.Errorf("upgrade cost %v, want %v", got, lat().Invalidate)
	}
	// Sole sharer upgrading pays only a hit.
	s2 := New(4, lat())
	n := s2.Access(0, 9, false, 0)
	end2 := s2.Access(0, 9, true, n)
	if got := end2 - n; math.Abs(got-lat().Hit) > 1e-15 {
		t.Errorf("sole-sharer upgrade cost %v, want hit", got)
	}
}

func TestSyncVsDataAccounting(t *testing.T) {
	s := New(4, lat())
	s.MarkSync(1)
	s.Access(0, 1, true, 0)
	s.Access(0, 2, true, 0)
	if s.SyncStats.Misses != 1 || s.DataStats.Misses != 1 {
		t.Errorf("stats not split: sync %+v data %+v", s.SyncStats, s.DataStats)
	}
}

func TestAccessPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, lat()) },
		func() { New(65, lat()) },
		func() { New(4, lat()).Access(4, 0, true, 0) },
		func() { CounterEpisode(New(4, lat()), QueueLock, nil, 0) },
		func() { CounterEpisode(New(2, lat()), QueueLock, make([]float64, 3), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQueueLockEffectiveTimeFlat(t *testing.T) {
	// The queue lock's per-update time must be flat in the contender
	// count once the first-miss cost is amortized — the paper's
	// constant-t_c assumption. (Lock and counter transfers pipeline
	// across the two lines, so the steady-state spacing is one transfer.)
	base := EffectiveUpdateTime(QueueLock, 8, lat(), 0)
	for _, k := range []int{16, 32, 56} {
		v := EffectiveUpdateTime(QueueLock, k, lat(), 0)
		if math.Abs(v-base)/base > 0.1 {
			t.Errorf("queue per-update time at k=%d is %v, base %v (not flat)", k, v, base)
		}
	}
	// Same order of magnitude as the paper's measured t_c = 20µs.
	if base < 5e-6 || base > 40e-6 {
		t.Errorf("queue per-update time %v, expected ≈10–20µs", base)
	}
}

func TestTASLockDegradesWithContention(t *testing.T) {
	spin := lat().Hit
	few := EffectiveUpdateTime(TASLock, 2, lat(), spin)
	many := EffectiveUpdateTime(TASLock, 16, lat(), spin)
	if many <= few*1.3 {
		t.Errorf("TAS per-update time did not degrade: k=2 %v vs k=16 %v", few, many)
	}
	// And TAS is never better than the queue lock at high contention.
	queue := EffectiveUpdateTime(QueueLock, 16, lat(), 0)
	if many <= queue {
		t.Errorf("TAS (%v) beat the queue lock (%v) at k=16", many, queue)
	}
}

func TestCounterEpisodeCompletesAllProcs(t *testing.T) {
	for _, kind := range []LockKind{QueueLock, TASLock} {
		s := New(8, lat())
		arr := make([]float64, 8)
		for i := range arr {
			arr[i] = float64(i) * 1e-6
		}
		res := CounterEpisode(s, kind, arr, 0)
		if res.Release <= 0 {
			t.Errorf("%v: release %v", kind, res.Release)
		}
		for i, d := range res.Done {
			if d <= arr[i] {
				t.Errorf("%v: proc %d done at %v before arrival %v", kind, i, d, arr[i])
			}
			if d > res.Release {
				t.Errorf("%v: proc %d done after release", kind, i)
			}
		}
		if kind == TASLock && res.Attempts <= 8 {
			t.Errorf("TAS attempts %d, expected retries beyond one per proc", res.Attempts)
		}
		if kind == QueueLock && res.Attempts != 8 {
			t.Errorf("queue attempts %d, want exactly 8", res.Attempts)
		}
	}
}

func TestLockKindString(t *testing.T) {
	if QueueLock.String() != "queue" || TASLock.String() != "test-and-set" {
		t.Fatal("lock kind strings wrong")
	}
	if LockKind(9).String() == "" {
		t.Fatal("unknown kind should print")
	}
}

// Agarwal & Cherian (§2): in a barrier-heavy loop, synchronization
// references can account for more than half of all invalidations. Model a
// BSP loop: each processor writes its own data line and reads one
// neighbor's, then the barrier counter episode runs.
func TestSyncInvalidationShare(t *testing.T) {
	const p = 16
	s := New(p, lat())
	now := 0.0
	arrivals := make([]float64, p)
	for iter := 0; iter < 20; iter++ {
		// Lockstep phases keep per-line requests in global time order.
		writeEnd := now
		for proc := 0; proc < p; proc++ {
			if end := s.Access(proc, 100+proc, true, now); end > writeEnd {
				writeEnd = end
			}
		}
		for proc := 0; proc < p; proc++ {
			arrivals[proc] = s.Access(proc, 100+(proc+1)%p, false, writeEnd)
		}
		res := CounterEpisode(s, QueueLock, arrivals, 0)
		now = res.Release
	}
	sync := s.SyncStats.Invalidations
	data := s.DataStats.Invalidations
	if sync <= data {
		t.Errorf("sync invalidations %d not dominant over data %d", sync, data)
	}
}
